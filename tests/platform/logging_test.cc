/**
 * @file
 * Logging macros: a record below the minimum level, or on a silenced
 * thread, is never formatted; an emitted record is formatted once and
 * prints in the logcat-style "L/tag: text" form.
 */
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "platform/logging.h"

namespace rchdroid {
namespace {

/** Stream argument that counts how often it is formatted. */
struct Counted
{
    int *calls;
};

std::ostream &
operator<<(std::ostream &os, const Counted &counted)
{
    ++*counted.calls;
    return os << "counted";
}

/** Pins the logger's level and quiet flag for one test. */
class LoggingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_level_ = LogConfig::minLevel();
        saved_quiet_ = LogConfig::quiet();
        LogConfig::setMinLevel(LogLevel::Warn);
        LogConfig::setQuiet(false);
    }

    void
    TearDown() override
    {
        LogConfig::setMinLevel(saved_level_);
        LogConfig::setQuiet(saved_quiet_);
    }

  private:
    LogLevel saved_level_ = LogLevel::Warn;
    bool saved_quiet_ = false;
};

TEST_F(LoggingTest, RecordBelowMinimumLevelIsNotFormatted)
{
    int calls = 0;
    ::testing::internal::CaptureStderr();
    RCH_LOGD("Test", "debug ", Counted{&calls});
    RCH_LOGI("Test", "info ", Counted{&calls});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(calls, 0);
}

TEST_F(LoggingTest, SilencedRecordIsNotFormatted)
{
    int calls = 0;
    ::testing::internal::CaptureStderr();
    {
        ScopedLogSilencer silence;
        RCH_LOGE("Test", "error ", Counted{&calls});
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(calls, 0);
}

TEST_F(LoggingTest, EmittedRecordIsFormattedOnce)
{
    int calls = 0;
    ::testing::internal::CaptureStderr();
    RCH_LOGW("Tag", "value ", 42, ' ', Counted{&calls});
    RCH_LOGE("Tag", "error");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "W/Tag: value 42 counted\nE/Tag: error\n");
    EXPECT_EQ(calls, 1);
}

TEST_F(LoggingTest, MacroIsOneStatement)
{
    int calls = 0;
    ::testing::internal::CaptureStderr();
    if (calls != 0)
        RCH_LOGE("Tag", "unreachable");
    else
        RCH_LOGW("Tag", Counted{&calls});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "W/Tag: counted\n");
    EXPECT_EQ(calls, 1);
}

} // namespace
} // namespace rchdroid
