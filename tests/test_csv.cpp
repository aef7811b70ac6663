// Tests for CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/simulator.hpp"
#include "stats/csv.hpp"

using namespace pmsb;
using namespace pmsb::stats;

namespace {
std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}
}  // namespace

TEST(Csv, WritesRowsAndEscapes) {
  const auto path = temp_path("basic.csv");
  {
    CsvWriter csv(path);
    csv.row({"a", "b"});
    csv.row({"plain", "has,comma"});
    csv.row({"has\"quote", "multi\nline"});
  }
  const auto text = read_all(path);
  EXPECT_NE(text.find("a,b\n"), std::string::npos);
  EXPECT_NE(text.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(text.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(Csv, FctExportRoundTrips) {
  FctCollector fct;
  fct.record({1, 50'000, sim::microseconds(10), sim::microseconds(100), 3});
  fct.record({2, 20'000'000, 0, sim::milliseconds(15), 5});
  const auto path = temp_path("fct.csv");
  write_fct_csv(path, fct);
  const auto text = read_all(path);
  EXPECT_NE(text.find("flow,bytes,bin,start_us,fct_us,service"), std::string::npos);
  EXPECT_NE(text.find("1,50000,small"), std::string::npos);
  EXPECT_NE(text.find("2,20000000,large"), std::string::npos);
  // Two data rows + header.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Csv, TraceExport) {
  sim::Simulator sim;
  std::uint64_t occ = 0;
  sim.schedule_at(sim::microseconds(25), [&] { occ = 4'500; });
  QueueTracer tracer(sim, [&] { return occ; }, sim::microseconds(10));
  sim.run(sim::microseconds(100));
  const auto path = temp_path("trace.csv");
  write_trace_csv(path, tracer);
  const auto text = read_all(path);
  EXPECT_NE(text.find("time_us,bytes"), std::string::npos);
  EXPECT_NE(text.find("4500"), std::string::npos);
}
