/**
 * @file
 * RCHDROID_ANALYSIS / RCHDROID_ANALYSIS_ABORT parsing: the words for
 * "off" switch the analyzer off, the words for "on" switch it on, and
 * anything else is reported on stderr and treated as unset. These
 * variables decide whether AndroidSystem installs an analyzer observer
 * on the seam.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/analyzer.h"

namespace rchdroid::analysis {
namespace {

/** Sets one variable for the test's scope and restores it afterwards. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            previous_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (previous_)
            ::setenv(name_, previous_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> previous_;
};

bool
buildDefault()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

TEST(AnalyzerEnv, OffWordsDisableAndOnWordsEnable)
{
    for (const char *off : {"0", "false", "off", "no"}) {
        ScopedEnv env("RCHDROID_ANALYSIS", off);
        EXPECT_FALSE(analysisEnabledByDefault()) << off;
    }
    for (const char *on : {"1", "true", "on", "yes"}) {
        ScopedEnv env("RCHDROID_ANALYSIS", on);
        EXPECT_TRUE(analysisEnabledByDefault()) << on;
    }
}

TEST(AnalyzerEnv, UnknownValueWarnsOnceAndCountsAsUnset)
{
    for (const char *odd : {"maybe", "2", "On", " 1"}) {
        ScopedEnv env("RCHDROID_ANALYSIS", odd);
        testing::internal::CaptureStderr();
        const bool enabled = analysisEnabledByDefault();
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(enabled, buildDefault()) << odd;
        EXPECT_NE(err.find("RCHDROID_ANALYSIS"), std::string::npos) << odd;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << "one line: " << err;
    }
}

TEST(AnalyzerEnv, AbortFollowsTheSameWords)
{
    {
        ScopedEnv env("RCHDROID_ANALYSIS_ABORT", "off");
        EXPECT_FALSE(analysisAbortByDefault());
        EXPECT_FALSE(optionsFromEnv().abort_on_violation);
    }
    {
        ScopedEnv env("RCHDROID_ANALYSIS_ABORT", "yes");
        EXPECT_TRUE(analysisAbortByDefault());
    }
    {
        ScopedEnv env("RCHDROID_ANALYSIS_ABORT", "sometimes");
        testing::internal::CaptureStderr();
        EXPECT_FALSE(analysisAbortByDefault());
        EXPECT_FALSE(testing::internal::GetCapturedStderr().empty());
    }
}

} // namespace
} // namespace rchdroid::analysis
