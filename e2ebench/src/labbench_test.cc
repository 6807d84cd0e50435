// Tests of the benchmark's own logic: schedule determinism, percentile
// and span arithmetic, and that every output check rejects a broken
// condition. Build and run with
//   cmake --build <build-dir> --target labbench_test && <build-dir>/labbench_test

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cqms.h"
#include "lab.h"
#include "workload/synthetic.h"

using namespace labbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// A small seeded log and write stream, as the benchmark's set-up builds.
struct SmallLab {
  cqms::SimulatedClock clock{1'600'000'000'000'000};
  cqms::SimulatedClock stream_clock{1'700'000'000'000'000};
  std::unique_ptr<cqms::Cqms> log;
  std::unique_ptr<cqms::Cqms> stream;
  LogPools pools;

  explicit SmallLab(uint64_t seed) {
    cqms::CqmsOptions o;
    o.clock = &clock;
    log = std::make_unique<cqms::Cqms>(o);
    cqms::workload::PopulateLakeDatabase(log->database(), 20);
    cqms::workload::WorkloadOptions w;
    w.num_sessions = 30;
    w.seed = seed;
    cqms::workload::RegisterUsers(log->store(), w);
    cqms::workload::GenerateLog(&log->profiler(), log->store(), &clock, w);
    cqms::CqmsOptions so;
    so.clock = &stream_clock;
    stream = std::make_unique<cqms::Cqms>(so);
    cqms::workload::PopulateLakeDatabase(stream->database(), 20);
    w.num_sessions = 20;
    w.seed = seed ^ 0x73747265616dull;
    cqms::workload::RegisterUsers(stream->store(), w);
    cqms::workload::GenerateLog(&stream->profiler(), stream->store(), &stream_clock, w);
    pools = BuildPools(*log->store(), *stream->store(), w.num_users);
  }

  std::string Schedule(uint64_t seed) {
    RequestMaker maker(&pools, seed);
    PhasePlan open{200, 2'000'000, 0, 4, 0.8, {0.5}};
    PhasePlan closed{0, 0, 300, 4, 0.8, {}};
    return ScheduleBytes(BuildSchedule(&maker, open, seed + 1)) +
           ScheduleBytes(BuildSchedule(&maker, closed, seed + 2));
  }
};

void TestScheduleIsDeterministic() {
  SmallLab a(7), b(7), c(8);
  const std::string sa = a.Schedule(11);
  EXPECT(!sa.empty());
  EXPECT(sa == b.Schedule(11));   // same seed: byte-identical
  EXPECT(sa != a.Schedule(12));   // another schedule seed
  EXPECT(sa != c.Schedule(11));   // another log seed

  RequestMaker maker(&a.pools, 3);
  PhasePlan open{200, 2'000'000, 0, 3, 0.0, {0.25}};
  std::vector<Request> reqs = BuildSchedule(&maker, open, 4);
  size_t maintains = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT(reqs[i].conn < 3);
    EXPECT(reqs[i].cls != OpClass::kSearch && reqs[i].cls != OpClass::kRecommend);
    if (i > 0) EXPECT(reqs[i - 1].due_us <= reqs[i].due_us);
    if (reqs[i].cls == OpClass::kMaintain) {
      ++maintains;
      EXPECT(reqs[i].due_us == 500'000);
      EXPECT(i + 1 < reqs.size() && reqs[i + 1].cls == OpClass::kCheckpoint);
    }
  }
  EXPECT(maintains == 1);
}

void TestPercentiles() {
  std::vector<double> lat;
  for (int i = 100; i >= 1; --i) lat.push_back(i);
  Percentiles p = ComputePercentiles(lat, 0, 1e9);
  EXPECT(p.samples == 100 && p.failures == 0);
  EXPECT(Near(p.p50, 50) && Near(p.p99, 99));
  EXPECT(p.beyond_p99 == 1);
  EXPECT(!p.p50_failed && !p.p99_failed);

  // Failures rank above every latency: 98 latencies + 2 failures put
  // the p99 rank (99 of 100) on a failure.
  lat.assign({});
  for (int i = 1; i <= 98; ++i) lat.push_back(i);
  p = ComputePercentiles(lat, 2, 1e9);
  EXPECT(p.samples == 100 && p.failures == 2);
  EXPECT(Near(p.p50, 50));
  EXPECT(p.p99_failed && Near(p.p99, 1e9));
  EXPECT(p.beyond_p99 == 1);

  p = ComputePercentiles({}, 0, 1e9);
  EXPECT(p.samples == 0 && Near(p.p50, 0) && Near(p.p99, 0));
  p = ComputePercentiles({}, 3, 1e9);
  EXPECT(p.p50_failed && p.p99_failed && p.samples == 3 && Near(p.p50, 1e9));
  p = ComputePercentiles({4.5}, 0, 1e9);
  EXPECT(Near(p.p50, 4.5) && Near(p.p99, 4.5) && p.beyond_p99 == 0);

  EXPECT(Near(NearestRank({1, 2, 3, 4}, 50), 2));
  EXPECT(Near(NearestRank({1, 2, 3, 4}, 99), 4));
  EXPECT(Near(NearestRank({}, 50), 0));
  EXPECT(Near(Median({3, 1, 2}), 2));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
}

void TestSelfTimes() {
  // Parent [0,100] with children [10,30], [20,50] (overlapping) and
  // [90,120] (clipped at 100): covered = [10,50] + [90,100] = 50.
  std::vector<Span> spans = {
      {"req", 0, 100, -1, 1},       {"a", 10, 30, 0, 1}, {"a", 20, 50, 0, 1},
      {"b", 90, 120, 0, 1},         {"leaf", 12, 18, 1, 1},
  };
  auto t = SelfTimes(spans);
  EXPECT(t["req"].count == 1 && Near(t["req"].total_ns, 100) && Near(t["req"].self_ns, 50));
  EXPECT(t["a"].count == 2 && Near(t["a"].total_ns, 50));
  EXPECT(Near(t["a"].self_ns, 44));  // the first "a" has a 6ns child
  EXPECT(Near(t["b"].self_ns, 30));
  EXPECT(Near(t["leaf"].self_ns, 6));
}

void TestChecksFailWhenBroken() {
  const std::vector<ScoredId> want = {{4, 0.9}, {7, 0.5}};
  EXPECT(CheckRanked(want, want).ok());
  EXPECT(!CheckRanked(want, {{4, 0.9}}).ok());
  EXPECT(!CheckRanked(want, {{7, 0.5}, {4, 0.9}}).ok());
  EXPECT(!CheckRanked(want, {{4, 0.9}, {7, 0.5 + 1e-6}}).ok());
  EXPECT(CheckRanked(want, {{4, 0.9}, {7, 0.5 + 1e-12}}).ok());

  cqms::Cqms c;
  c.RegisterUser("u", {"lab0"});
  const QueryId a = c.profiler().LogOnly("SELECT 1 FROM WaterTemp", "u");
  const QueryId b = c.profiler().LogOnly("SELECT 2 FROM WaterTemp", "u");
  EXPECT(CheckAckedAppends(*c.store(), {{a, "SELECT 1 FROM WaterTemp"},
                                        {b, "SELECT 2 FROM WaterTemp"}})
             .ok());
  EXPECT(!CheckAckedAppends(*c.store(), {{a, "SELECT 2 FROM WaterTemp"}}).ok());
  EXPECT(!CheckAckedAppends(*c.store(), {{b + 5, "SELECT 1 FROM WaterTemp"}}).ok());

  EXPECT(CheckReplica(10, 42, 10, 42).ok());
  EXPECT(!CheckReplica(10, 42, 9, 42).ok());
  EXPECT(!CheckReplica(10, 42, 10, 41).ok());

  EXPECT(CheckFinalSize(100, 5, 105).ok());
  EXPECT(!CheckFinalSize(100, 5, 104).ok());
  EXPECT(!CheckFinalSize(100, 5, 106).ok());
}

void TestExposition() {
  auto before = ParseExposition("a_total 3\nh{stage=\"x\",stat=\"p50\"} 7\n\nbad\n");
  auto after = ParseExposition("a_total 10\nh{stage=\"x\",stat=\"p50\"} 9\nnew 4\n");
  EXPECT(Near(before["a_total"], 3));
  EXPECT(before.count("bad") == 0);
  EXPECT(Near(Delta(before, after, "a_total"), 7));
  EXPECT(Near(Delta(before, after, "h{stage=\"x\",stat=\"p50\"}"), 2));
  EXPECT(Near(Delta(before, after, "new"), 4));
  EXPECT(Near(Delta(before, after, "absent"), 0));
}

}  // namespace

int main() {
  TestScheduleIsDeterministic();
  TestPercentiles();
  TestSelfTimes();
  TestChecksFailWhenBroken();
  TestExposition();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("labbench_test: all passed\n");
  return 0;
}
