#include "common/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace vaq
{
namespace
{

TEST(Error, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(require(true, "never thrown"));
}

TEST(Error, RequireThrowsWithMessage)
{
    try {
        require(false, "bad input");
        FAIL() << "expected VaqError";
    } catch (const VaqError &e) {
        EXPECT_EQ(std::string(e.what()), "bad input");
    }
}

TEST(Error, AssertMacroThrowsInternalError)
{
    EXPECT_THROW(VAQ_ASSERT(1 == 2, "impossible"),
                 VaqInternalError);
    EXPECT_NO_THROW(VAQ_ASSERT(1 == 1, "fine"));
}

TEST(Error, AssertMessageHasContext)
{
    try {
        VAQ_ASSERT(false, "diagnostic detail");
        FAIL() << "expected VaqInternalError";
    } catch (const VaqInternalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("diagnostic detail"),
                  std::string::npos);
        EXPECT_NE(what.find("test_error.cpp"), std::string::npos);
        EXPECT_NE(what.find("false"), std::string::npos);
    }
}

TEST(Error, ErrorTypesAreDistinct)
{
    // User errors are runtime_error; internal bugs are logic_error,
    // so catch sites can separate them.
    EXPECT_THROW(throw VaqError("x"), std::runtime_error);
    EXPECT_THROW(throw VaqInternalError("y"), std::logic_error);
}

TEST(Error, TaxonomyCarriesCategories)
{
    EXPECT_EQ(VaqError("x").category(), ErrorCategory::Usage);
    EXPECT_EQ(CalibrationError("x").category(),
              ErrorCategory::Calibration);
    EXPECT_EQ(CompileError("x").category(),
              ErrorCategory::Compile);
    EXPECT_EQ(TimeoutError("x").category(),
              ErrorCategory::Timeout);

    // Taxonomy errors still flow through existing VaqError sites.
    EXPECT_THROW(throw CalibrationError("x"), VaqError);
    EXPECT_THROW(throw TimeoutError("x"), VaqError);
}

TEST(Error, CategoryNamesAreStable)
{
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Usage), "usage");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Calibration),
                 "calibration");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Routing),
                 "routing");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Compile),
                 "compile");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Timeout),
                 "timeout");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::Internal),
                 "internal");
}

TEST(Error, StructuredFieldsSurviveTheMessage)
{
    const CalibrationError cal("dead readout", 3);
    EXPECT_EQ(cal.qubit(), 3);
    EXPECT_EQ(cal.link(), -1);
    EXPECT_NE(std::string(cal.what()).find("qubit 3"),
              std::string::npos);

    const CalibrationError link("dead link", -1, 5);
    EXPECT_EQ(link.link(), 5);
    EXPECT_NE(std::string(link.what()).find("link 5"),
              std::string::npos);

    const TimeoutError timeout("deadline of 20 ms exceeded", 20.0);
    EXPECT_EQ(timeout.budgetMs(), 20.0);
}

TEST(Error, CategorizeClassifiesArbitraryExceptions)
{
    EXPECT_EQ(categorize(CalibrationError("x")),
              ErrorCategory::Calibration);
    EXPECT_EQ(categorize(TimeoutError("x")),
              ErrorCategory::Timeout);
    EXPECT_EQ(categorize(VaqError("x")), ErrorCategory::Usage);
    EXPECT_EQ(categorize(VaqInternalError("x")),
              ErrorCategory::Internal);
    EXPECT_EQ(categorize(std::runtime_error("x")),
              ErrorCategory::Internal);
}

} // namespace
} // namespace vaq
