#include "common/status.h"

#include <gtest/gtest.h>

namespace dgcl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad graph");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad graph");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad graph");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusCodeNameTest, CoversEveryCode) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
}

TEST(ResultTest, HoldsValue) {
  Result<std::string> r(std::string("value"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "value");
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailWhenNegative(int x) {
  if (x < 0) {
    return Status::InvalidArgument("negative");
  }
  return Status::Ok();
}

Status Caller(int x) {
  DGCL_RETURN_IF_ERROR(FailWhenNegative(x));
  return Status::Ok();
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(1).ok());
  EXPECT_EQ(Caller(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Status::InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  DGCL_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(StatusMacroTest, AssignOrReturnChains) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(3).ok());
}

}  // namespace
}  // namespace dgcl
