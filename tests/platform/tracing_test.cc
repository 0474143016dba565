/**
 * @file
 * Tracer: span nesting, async pairing, lane/process bookkeeping and the
 * Chrome trace-event JSON export (parsed back by a minimal JSON reader
 * to prove well-formedness, mirroring tools/check_trace.py).
 */
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "platform/tracing.h"

namespace rchdroid::trace {
namespace {

/**
 * Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
 * grammar (no trailing commas, no bare values outside containers) and
 * reports the first offending offset via *error.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    bool
    validate(std::string *error)
    {
        pos_ = 0;
        if (!value()) {
            *error = "parse error at offset " + std::to_string(pos_);
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            *error = "trailing garbage at offset " + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_];
                if (esc == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_ + i])))
                            return false;
                    }
                    pos_ += 4;
                } else if (std::string("\"\\/bfnrt").find(esc) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

TEST(Tracer, NestedSpansEmitBalancedBeginEnd)
{
    Tracer tracer;
    SimTime now = 0;
    tracer.setClock([&now] { return now; });

    tracer.begin("outer", "sim");
    now = 100;
    tracer.begin("inner", "sim");
    now = 200;
    tracer.end();
    now = 300;
    tracer.end();

    const auto &events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].phase, Phase::kBegin);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].phase, Phase::kBegin);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[2].phase, Phase::kEnd);
    EXPECT_EQ(events[3].phase, Phase::kEnd);
    EXPECT_EQ(events[1].ts, 100);
    EXPECT_EQ(events[2].ts, 200);
    EXPECT_EQ(events[3].ts, 300);
    // All on the same default lane.
    for (const auto &event : events)
        EXPECT_EQ(event.lane, 0u);
}

TEST(Tracer, AsyncSpansPairById)
{
    Tracer tracer;
    tracer.asyncBegin("episode", 0, "rch.episode", 1000, "rotate");
    tracer.asyncBegin("episode", 1, "rch.episode", 1500);
    tracer.asyncEnd("episode", 0, 2000);
    tracer.asyncEnd("episode", 1, 2500, "aborted");

    const auto &events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].phase, Phase::kAsyncBegin);
    EXPECT_EQ(events[0].async_id, 0u);
    EXPECT_EQ(events[2].phase, Phase::kAsyncEnd);
    EXPECT_EQ(events[2].async_id, 0u);
    EXPECT_EQ(events[3].async_id, 1u);
    EXPECT_EQ(events[3].arg, "aborted");
}

TEST(Tracer, ProcessesAndLanesGetDistinctIds)
{
    Tracer tracer;
    const std::uint32_t device_a = tracer.beginProcess("device[A]");
    const std::uint32_t ui_a = tracer.laneId("app.ui");
    const std::uint32_t device_b = tracer.beginProcess("device[B]");
    const std::uint32_t ui_b = tracer.laneId("app.ui");

    EXPECT_NE(device_a, device_b);
    EXPECT_NE(ui_a, ui_b); // same name, different process -> new lane
    EXPECT_EQ(tracer.laneId("app.ui"), ui_b); // idempotent within process
    EXPECT_EQ(tracer.currentPid(), device_b);
}

TEST(Tracer, ChromeJsonParsesBackCleanly)
{
    Tracer tracer;
    tracer.beginProcess("device[RCHDroid]");
    const std::uint32_t lane = tracer.laneId("system_server.atms");
    tracer.beginOnAt(lane, 0, "dispatch", "sim");
    tracer.instantAt(100, "atms.configChange", "port 1080x1920");
    tracer.asyncBegin("episode", 0, "rch.episode", 100);
    tracer.endOnAt(lane, 4000);
    tracer.asyncEnd("episode", 0, 90'000);
    // Hostile strings must be escaped, not break the document.
    tracer.instantAt(91'000, "quote\"back\\slash", "line\nbreak\ttab");

    const std::string json = tracer.toChromeJson();
    std::string error;
    EXPECT_TRUE(JsonReader(json).validate(&error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // µs serialisation: 90,000 ns -> 90.000 µs.
    EXPECT_NE(json.find("\"ts\":90.000"), std::string::npos);
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("line\\nbreak\\ttab"), std::string::npos);
}

TEST(Tracer, WriteChromeJsonRoundTrips)
{
    Tracer tracer;
    tracer.instantAt(1, "marker");
    const std::string path = ::testing::TempDir() + "/tracing_test.json";
    ASSERT_TRUE(tracer.writeChromeJson(path));
    EXPECT_FALSE(tracer.writeChromeJson("/nonexistent-dir/x/t.json"));
}

TEST(Tracer, NowWithoutClockIsZero)
{
    Tracer tracer;
    EXPECT_EQ(tracer.now(), 0);
    tracer.setClock([] { return SimTime{42}; });
    EXPECT_EQ(tracer.now(), 42);
    tracer.clearClock();
    EXPECT_EQ(tracer.now(), 0);
}

} // namespace
} // namespace rchdroid::trace
