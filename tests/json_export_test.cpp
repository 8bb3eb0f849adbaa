// Tests for the JSON trace exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "harness/json_export.h"
#include "obs/json_writer.h"

namespace fedl::harness {
namespace {

fl::TrainTrace sample_trace() {
  fl::TrainTrace t;
  t.algorithm = "FedL";
  fl::TraceRecord r;
  r.epoch = 1;
  r.round = 2;
  r.sim_time_s = 3.5;
  r.cost_spent = 10.25;
  r.train_loss = 1.5;
  r.test_loss = 1.75;
  r.test_accuracy = 0.5;
  r.num_selected = 4;
  r.num_iterations = 2;
  r.eta = 0.9;
  t.records.push_back(r);
  return t;
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json_escape("plain"), "plain");
}

TEST(JsonExport, TraceStructure) {
  std::ostringstream os;
  write_trace_json(os, sample_trace());
  const std::string j = os.str();
  EXPECT_NE(j.find("\"algorithm\":\"FedL\""), std::string::npos);
  EXPECT_NE(j.find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(j.find("\"time_s\":3.5"), std::string::npos);
  EXPECT_NE(j.find("\"test_acc\":0.5"), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

TEST(JsonExport, ArrayOfTraces) {
  std::ostringstream os;
  write_traces_json(os, {sample_trace(), sample_trace()});
  const std::string j = os.str();
  EXPECT_EQ(j.front(), '[');
  // Two objects separated by a comma.
  EXPECT_NE(j.find("},{"), std::string::npos);
}

TEST(JsonExport, NanBecomesNull) {
  fl::TrainTrace t = sample_trace();
  t.records[0].train_loss = std::nan("");
  std::ostringstream os;
  write_trace_json(os, t);
  EXPECT_NE(os.str().find("\"train_loss\":null"), std::string::npos);
}

TEST(JsonExport, FileRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "/fedl_traces.json";
  write_traces_json_file(path, {sample_trace()});
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("FedL"), std::string::npos);
  EXPECT_EQ(contents.back(), '\n');
  std::remove(path.c_str());
}

TEST(JsonExport, BadPathThrows) {
  EXPECT_THROW(write_traces_json_file("/no/such/dir/t.json", {}),
               ConfigError);
}

TEST(JsonExport, EmptyTraceList) {
  std::ostringstream os;
  write_traces_json(os, {});
  EXPECT_EQ(os.str(), "[]\n");
}

}  // namespace
}  // namespace fedl::harness
