// Tests for the src/exp campaign engine: StreamingStats determinism,
// the work-stealing executor, seed derivation goldens, grid parsing,
// thread-count/shard invariance of campaign output, fail-fast
// cancellation, and concurrent JSONL writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.h"
#include "exp/campaign_io.h"
#include "exp/executor.h"
#include "exp/spec_parse.h"
#include "exp/stats.h"
#include "core/harness.h"
#include "obs/json_parse.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "sim/rng.h"

namespace byzrename::exp {
namespace {

// --- StreamingStats -------------------------------------------------------

TEST(StreamingStats, ExactMomentsBelowCapacity) {
  StreamingStats stats(/*reservoir_capacity=*/16, /*salt=*/1);
  for (std::uint64_t i = 0; i < 10; ++i) stats.add(i, static_cast<std::int64_t>(i + 1));
  EXPECT_EQ(stats.count(), 10u);
  EXPECT_EQ(stats.min(), 1);
  EXPECT_EQ(stats.max(), 10);
  EXPECT_EQ(stats.sum(), 55);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.5);
  // count <= capacity: quantiles are exact nearest-rank over all samples.
  EXPECT_EQ(stats.quantile(0.0), 1);
  EXPECT_EQ(stats.quantile(0.5), 5);
  EXPECT_EQ(stats.quantile(1.0), 10);
}

TEST(StreamingStats, OrderIndependent) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> samples;
  sim::Rng rng(99);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    samples.emplace_back(i, rng.uniform(0, 1 << 20));
  }
  StreamingStats forward(64, /*salt=*/7);
  for (const auto& [index, value] : samples) forward.add(index, value);
  StreamingStats shuffled(64, /*salt=*/7);
  std::reverse(samples.begin(), samples.end());
  std::swap(samples[3], samples[700]);
  for (const auto& [index, value] : samples) shuffled.add(index, value);

  EXPECT_EQ(forward.sum(), shuffled.sum());
  EXPECT_EQ(forward.min(), shuffled.min());
  EXPECT_EQ(forward.max(), shuffled.max());
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(forward.quantile(q), shuffled.quantile(q)) << "q=" << q;
  }
}

TEST(StreamingStats, MergeEqualsSingleAccumulator) {
  // Split the index space between two partials (a shard / per-worker
  // pattern); the merged result must equal the single-accumulator run.
  StreamingStats whole(32, /*salt=*/5);
  StreamingStats even(32, /*salt=*/5);
  StreamingStats odd(32, /*salt=*/5);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto value = static_cast<std::int64_t>((i * 2654435761u) % 10007);
    whole.add(i, value);
    (i % 2 == 0 ? even : odd).add(i, value);
  }
  even.merge(odd);
  EXPECT_EQ(even.count(), whole.count());
  EXPECT_EQ(even.sum(), whole.sum());
  EXPECT_EQ(even.min(), whole.min());
  EXPECT_EQ(even.max(), whole.max());
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(even.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

// --- seed derivation ------------------------------------------------------

TEST(SeedDerivation, GoldenValues) {
  // Pinned: changing splitmix64, derive_stream, or derive_seed
  // invalidates every recorded campaign. Update ONLY with a schema bump.
  EXPECT_EQ(sim::splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(sim::splitmix64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(sim::Rng::derive_stream(42, 0), 0x79c32cd79ccd877eull);
  EXPECT_EQ(derive_seed(42, 0, 0), 0x55d682349343e6ull);
  EXPECT_EQ(derive_seed(42, 0, 1), 0xcef9a50036afc780ull);
  EXPECT_EQ(derive_seed(42, 1, 0), 0x6c10be6ef3b55619ull);
  EXPECT_EQ(derive_seed(1, 0, 0), 0x22d29894c92033d6ull);
}

TEST(SeedDerivation, DistinctAcrossGrid) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    for (std::uint64_t rep = 0; rep < 16; ++rep) {
      seeds.insert(derive_seed(7, cell, rep));
    }
  }
  EXPECT_EQ(seeds.size(), 64u * 16u);
}

// --- executor -------------------------------------------------------------

TEST(Executor, RunsEveryTaskExactlyOnce) {
  Executor executor(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  const Executor::Stats stats =
      executor.run(hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(stats.executed, hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(Executor, SingleThreadIsSequential) {
  Executor executor(1);
  std::vector<std::size_t> order;
  executor.run(20, [&order](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(20);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(Executor, CancellationStopsUnstartedTasks) {
  Executor executor(1);  // deterministic: sequential order, exact cutoff
  std::vector<std::size_t> ran;
  const Executor::Stats stats = executor.run(100, [&](std::size_t i) {
    ran.push_back(i);
    if (i == 4) executor.cancel();
  });
  EXPECT_TRUE(executor.cancelled());
  EXPECT_EQ(stats.executed, 5u);
  EXPECT_EQ(ran.size(), 5u);
  // The flag resets on the next run().
  const Executor::Stats again = executor.run(3, [](std::size_t) {});
  EXPECT_EQ(again.executed, 3u);
  EXPECT_FALSE(executor.cancelled());
}

TEST(Executor, UnevenTasksGetStolen) {
  // One giant task on worker 0's block forces the other workers to steal
  // the rest of its preloaded indices. Stealing is timing-dependent, so
  // only assert the invariant that makes it observable at all: every
  // task runs exactly once even under heavy imbalance.
  Executor executor(4);
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> benchmark_sink{0};
  const Executor::Stats stats = executor.run(64, [&](std::size_t i) {
    if (i == 0) {
      for (std::uint64_t k = 0; k < 3'000'000; ++k) {
        benchmark_sink.fetch_add(k, std::memory_order_relaxed);
      }
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(stats.executed, 64u);
  EXPECT_EQ(done.load(), 64u);
}

// --- grid parsing ---------------------------------------------------------

TEST(SpecParse, GridAxesAndDefaults) {
  const CampaignSpec spec = parse_campaign_spec("n=10,13;t=3,4;reps=2;seed=9;name=sweep");
  EXPECT_EQ(spec.name, "sweep");
  ASSERT_EQ(spec.algorithms.size(), 1u);  // default algo=op
  EXPECT_EQ(spec.algorithms[0], core::Algorithm::kOpRenaming);
  EXPECT_EQ(spec.n_values, (std::vector<int>{10, 13}));
  EXPECT_EQ(spec.t_values, (std::vector<int>{3, 4}));
  ASSERT_EQ(spec.adversaries.size(), 1u);  // default adversary=silent
  EXPECT_EQ(spec.adversaries[0], "silent");
  EXPECT_EQ(spec.repetitions, 2);
  EXPECT_EQ(spec.master_seed, 9u);
  EXPECT_TRUE(spec.skip_invalid);
}

TEST(SpecParse, RangesAndPairs) {
  const CampaignSpec spec = parse_campaign_spec("n=4..10/3;t=1..2;nt=22:7,31:10");
  EXPECT_EQ(spec.n_values, (std::vector<int>{4, 7, 10}));
  EXPECT_EQ(spec.t_values, (std::vector<int>{1, 2}));
  ASSERT_EQ(spec.systems.size(), 2u);
  EXPECT_EQ(spec.systems[0].n, 22);
  EXPECT_EQ(spec.systems[0].t, 7);
  EXPECT_EQ(spec.systems[1].n, 31);
  EXPECT_EQ(spec.systems[1].t, 10);
}

TEST(SpecParse, FlagsAndOverrides) {
  const CampaignSpec spec =
      parse_campaign_spec("nt=10:3;keep-invalid;no-validation;faults=2;extra=1;iterations=5");
  EXPECT_FALSE(spec.skip_invalid);
  EXPECT_FALSE(spec.options.validate_votes);
  EXPECT_EQ(spec.actual_faults, 2);
  EXPECT_EQ(spec.extra_rounds, 1);
}

TEST(SpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_campaign_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("n=10"), std::invalid_argument);          // t missing
  EXPECT_THROW(parse_campaign_spec("adversary=split"), std::invalid_argument);  // no systems
  EXPECT_THROW(parse_campaign_spec("n=10;t=3;bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("n=x;t=3"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("n=10..4;t=3"), std::invalid_argument);   // empty range
  EXPECT_THROW(parse_campaign_spec("algo=nope;n=10;t=3"), std::invalid_argument);
}

// --- cell expansion -------------------------------------------------------

TEST(ExpandCells, FiltersInvalidAndIndexesFullGrid) {
  CampaignSpec spec;
  spec.algorithms = {core::Algorithm::kOpRenaming};
  spec.n_values = {7, 10};
  spec.t_values = {2, 3};  // (7, 3) violates n > 3t
  spec.adversaries = {"silent"};
  const std::vector<CampaignCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 3u);
  for (const CampaignCell& cell : cells) {
    EXPECT_TRUE(cell_valid(cell.algorithm, cell.params)) << cell_key(cell);
  }
  // Indices are assigned after filtering: contiguous 0..k-1 so sharding
  // partitions exactly.
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);

  spec.skip_invalid = false;
  EXPECT_EQ(expand_cells(spec).size(), 4u);
}

// --- campaign engine ------------------------------------------------------

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "exp-test";
  spec.algorithms = {core::Algorithm::kOpRenaming};
  spec.n_values = {7, 10};
  spec.t_values = {2};
  spec.adversaries = {"silent", "idflood"};
  spec.repetitions = 3;
  spec.master_seed = 21;
  return spec;
}

std::string cells_text(const CampaignSpec& spec, const CampaignResult& result) {
  std::ostringstream os;
  write_campaign_cells(os, spec, result);
  return os.str();
}

TEST(Campaign, OutputIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = small_spec();
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions parallel;
  parallel.threads = 8;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(cells_text(spec, a), cells_text(spec, b));
  // Per-run records agree too (same derived seeds, same outcomes).
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].seed, b.runs[i].seed);
    EXPECT_EQ(a.runs[i].rounds, b.runs[i].rounds);
    EXPECT_EQ(a.runs[i].correct_messages, b.runs[i].correct_messages);
    EXPECT_EQ(a.runs[i].max_name, b.runs[i].max_name);
  }
}

TEST(Campaign, ShardUnionEqualsFullCampaign) {
  const CampaignSpec spec = small_spec();
  const CampaignResult full = run_campaign(spec, {});

  std::vector<std::string> shard_lines;
  std::size_t shard_cells = 0;
  for (int shard = 0; shard < 2; ++shard) {
    CampaignOptions options;
    options.shard_index = shard;
    options.shard_count = 2;
    const CampaignResult part = run_campaign(spec, options);
    shard_cells += part.cells.size();
    std::istringstream lines(cells_text(spec, part));
    for (std::string line; std::getline(lines, line);) shard_lines.push_back(line);
  }
  EXPECT_EQ(shard_cells, full.cells.size());

  std::vector<std::string> full_lines;
  std::istringstream lines(cells_text(spec, full));
  for (std::string line; std::getline(lines, line);) full_lines.push_back(line);
  std::sort(full_lines.begin(), full_lines.end());
  std::sort(shard_lines.begin(), shard_lines.end());
  EXPECT_EQ(shard_lines, full_lines);
}

TEST(Campaign, FailFastCancelsRemainingRuns) {
  // orderbreak with validation disabled reliably violates order
  // preservation; with threads=1 the cutoff is exact.
  CampaignSpec spec;
  spec.name = "fail-fast";
  spec.algorithms = {core::Algorithm::kOpRenaming};
  spec.n_values = {10};
  spec.t_values = {3};
  spec.adversaries = {"orderbreak"};
  spec.options.validate_votes = false;
  spec.repetitions = 40;
  spec.master_seed = 5;

  CampaignOptions options;
  options.threads = 1;
  options.fail_fast = true;
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_GE(result.violations, 1u);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.all_ok());
  EXPECT_LT(result.executed, result.runs.size());
  // Skipped runs are recorded as such, not silently dropped.
  std::size_t skipped = 0;
  for (const RunRecord& run : result.runs) skipped += run.executed ? 0 : 1;
  EXPECT_EQ(skipped, result.runs.size() - result.executed);
}

TEST(Campaign, HooksSeeEveryRunIndex) {
  const CampaignSpec spec = small_spec();
  const std::size_t total = expand_cells(spec).size() * static_cast<std::size_t>(spec.repetitions);
  std::vector<std::atomic<int>> configured(total);
  std::vector<std::atomic<int>> inspected(total);
  for (auto& c : configured) c.store(0);
  for (auto& c : inspected) c.store(0);

  CampaignOptions options;
  options.threads = 4;
  options.configure = [&configured](std::size_t run_index, core::ScenarioConfig&) {
    configured[run_index].fetch_add(1);
  };
  options.inspect = [&inspected](std::size_t run_index, const core::ScenarioResult& result) {
    EXPECT_TRUE(result.run.terminated);
    inspected[run_index].fetch_add(1);
  };
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(result.executed, total);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(configured[i].load(), 1) << "run " << i;
    EXPECT_EQ(inspected[i].load(), 1) << "run " << i;
  }
}

// --- concurrent JSONL writers ---------------------------------------------

TEST(Campaign, ConcurrentRunLinesNeverInterleave) {
  const CampaignSpec spec = small_spec();
  std::ostringstream runs;
  CampaignOptions options;
  options.threads = 8;
  options.runs_out = &runs;
  options.runs_bench = "exp-test";
  const CampaignResult result = run_campaign(spec, options);

  std::size_t lines = 0;
  std::istringstream in(runs.str());
  for (std::string line; std::getline(in, line); ++lines) {
    // Every line is a complete, well-formed run report: interleaved
    // writes would tear the schema prefix or the closing brace.
    EXPECT_EQ(line.rfind("{\"schema\":\"byzrename.run/1\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"bench\":\"exp-test\""), std::string::npos);
  }
  EXPECT_EQ(lines, result.executed);
}

TEST(RunReportSink, SharedMutexSerialisesManualWriters) {
  // Many threads each emit whole runs through sinks sharing one mutex —
  // the BenchReporter-under-campaign configuration.
  std::ostringstream out;
  std::mutex guard;
  std::vector<std::thread> writers;
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 25;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&out, &guard, w] {
      obs::RunReportSink sink(out, "mt-test", &guard);
      sink.set_probes_enabled(false);
      sink.set_label("mt");
      for (int r = 0; r < kRunsPerThread; ++r) {
        core::ScenarioConfig config;
        config.algorithm = core::Algorithm::kOpRenaming;
        config.params = {.n = 7, .t = 2};
        config.adversary = "silent";
        config.seed = static_cast<std::uint64_t>(w * kRunsPerThread + r);
        config.observers = {&sink};
        const core::ScenarioResult result = core::run_scenario(config);
        EXPECT_TRUE(result.run.terminated);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  std::size_t lines = 0;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line); ++lines) {
    EXPECT_EQ(line.rfind("{\"schema\":\"byzrename.run/1\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads) * kRunsPerThread);
}


// --- StreamingStats edge cases ---------------------------------------------

TEST(StreamingStats, ZeroSamplesYieldNeutralAggregate) {
  const StreamingStats stats(16, /*salt=*/3);
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.sum(), 0);
  EXPECT_EQ(stats.min(), 0);
  EXPECT_EQ(stats.max(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.quantile(0.5), 0);  // empty reservoir, not a crash
  EXPECT_EQ(stats.reservoir_size(), 0u);
}

TEST(StreamingStats, SingleSampleIsEveryStatistic) {
  StreamingStats stats(16, /*salt=*/3);
  stats.add(0, -42);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.min(), -42);
  EXPECT_EQ(stats.max(), -42);
  EXPECT_EQ(stats.sum(), -42);
  EXPECT_DOUBLE_EQ(stats.mean(), -42.0);
  for (const double q : {0.0, 0.5, 0.95, 1.0}) EXPECT_EQ(stats.quantile(q), -42);
}

TEST(StreamingStats, MergingAnEmptyAccumulatorIsIdentity) {
  StreamingStats stats(16, /*salt=*/3);
  stats.add(0, 5);
  stats.add(1, 9);
  const StreamingStats empty(16, /*salt=*/3);
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_EQ(stats.sum(), 14);
  StreamingStats other(16, /*salt=*/3);
  other.merge(stats);  // merge INTO empty works too
  EXPECT_EQ(other.count(), 2u);
  EXPECT_EQ(other.min(), 5);
  EXPECT_EQ(other.max(), 9);
}

// --- retry-then-quarantine containment -------------------------------------

CampaignSpec throwing_spec() {
  // Every run of this cell throws inside run_scenario (unknown adversary
  // name), standing in for an assert-failure in protocol code.
  CampaignSpec spec;
  spec.name = "quarantine-test";
  spec.algorithms = {core::Algorithm::kOpRenaming};
  spec.n_values = {7};
  spec.t_values = {2};
  spec.adversaries = {"no-such-strategy"};
  spec.repetitions = 3;
  spec.master_seed = 5;
  return spec;
}

TEST(Campaign, ThrowingRunsAreRetriedThenQuarantinedSweepSurvives) {
  CampaignOptions options;
  options.threads = 2;
  options.quarantine_retries = 1;
  const CampaignResult result = run_campaign(throwing_spec(), options);
  EXPECT_EQ(result.quarantined, 3u);
  EXPECT_EQ(result.violations, 0u);  // infrastructure failures are not verdicts
  EXPECT_FALSE(result.cancelled);
  EXPECT_FALSE(result.all_ok());
  ASSERT_EQ(result.runs.size(), 3u);
  for (const RunRecord& record : result.runs) {
    EXPECT_TRUE(record.quarantined);
    EXPECT_EQ(record.failure, FailureKind::kException);
    EXPECT_EQ(record.attempts, 2);  // 1 try + 1 retry, then quarantine
    EXPECT_NE(record.detail.find("no-such-strategy"), std::string::npos);
  }
  // Quarantined runs never enter the deterministic aggregates.
  EXPECT_EQ(result.aggregates.at(0).executed, 0u);
  EXPECT_EQ(result.aggregates.at(0).quarantined, 3u);
  EXPECT_EQ(result.aggregates.at(0).rounds.count(), 0u);
}

TEST(Campaign, HangingRunIsQuarantinedByWatchdog) {
  CampaignSpec spec = small_spec();
  spec.n_values = {7};
  spec.adversaries = {"silent"};
  spec.repetitions = 2;
  CampaignOptions options;
  options.threads = 2;
  options.quarantine_retries = 0;
  options.run_timeout_seconds = 0.02;
  // The injected hang: every round of rep 0 sleeps past the watchdog
  // deadline. Rep 1 runs clean and must be unaffected.
  obs::RoundProbe hang([](sim::Round, const sim::Network&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  options.configure = [&hang](std::size_t run_index, core::ScenarioConfig& config) {
    if (run_index % 2 == 0) config.observers.push_back(&hang);
  };
  const CampaignResult result = run_campaign(spec, options);
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_TRUE(result.runs[0].quarantined);
  EXPECT_EQ(result.runs[0].failure, FailureKind::kTimeout);
  EXPECT_EQ(result.runs[0].attempts, 1);
  EXPECT_FALSE(result.runs[1].quarantined);
  EXPECT_TRUE(result.runs[1].ok);
  EXPECT_EQ(result.quarantined, 1u);
}

TEST(Campaign, AllQuarantinedCellEmitsSchemaValidDeterministicOutput) {
  const CampaignSpec spec = throwing_spec();
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions parallel;
  parallel.threads = 4;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  // Exception-kind quarantines are deterministic, so the cell lines stay
  // bit-identical across thread counts even when every run failed.
  EXPECT_EQ(cells_text(spec, a), cells_text(spec, b));

  // Both documents parse as JSON and carry the quarantine accounting.
  std::istringstream lines(cells_text(spec, a));
  std::size_t cell_lines = 0;
  for (std::string line; std::getline(lines, line); ++cell_lines) {
    const obs::JsonValue cell = obs::parse_json(line);
    EXPECT_EQ(cell.at("schema").as_string(), "byzrename.campaign/1");
    EXPECT_EQ(cell.at("quarantined").as_int(), 3);
    EXPECT_EQ(cell.at("executed").as_int(), 0);
    EXPECT_EQ(cell.at("stats").at("rounds").at("count").as_int(), 0);
  }
  EXPECT_EQ(cell_lines, 1u);

  std::ostringstream summary_os;
  write_campaign_summary(summary_os, spec, a);
  const obs::JsonValue summary = obs::parse_json(summary_os.str());
  EXPECT_EQ(summary.at("schema").as_string(), "byzrename.campaign-summary/1");
  EXPECT_EQ(summary.at("quarantined").as_int(), 3);
  const obs::JsonValue::Array& quarantined_runs = summary.at("quarantined_runs").as_array();
  ASSERT_EQ(quarantined_runs.size(), 3u);
  for (const obs::JsonValue& entry : quarantined_runs) {
    EXPECT_EQ(entry.at("kind").as_string(), "exception");
    EXPECT_EQ(entry.at("attempts").as_int(), 2);
    EXPECT_EQ(entry.at("cell").as_string(), "op-renaming/n7/t2/no-such-strategy");
    (void)entry.at("seed").as_uint();  // present and integral
  }
}

TEST(Campaign, ViolationsAreResultsNeverRetried) {
  // orderbreak with validation disabled produces checker violations; the
  // engine must record them on attempt 1, not burn retries.
  CampaignSpec spec;
  spec.name = "violation-test";
  spec.algorithms = {core::Algorithm::kOpRenaming};
  spec.n_values = {10};
  spec.t_values = {3};
  spec.adversaries = {"orderbreak"};
  spec.repetitions = 6;
  spec.master_seed = 3;
  spec.options.validate_votes = false;
  CampaignOptions options;
  options.threads = 2;
  options.quarantine_retries = 3;
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(result.quarantined, 0u);
  EXPECT_GT(result.violations, 0u);
  for (const RunRecord& record : result.runs) {
    EXPECT_EQ(record.attempts, 1);
    EXPECT_FALSE(record.quarantined);
    if (!record.ok) {
      EXPECT_EQ(record.failure, FailureKind::kViolation);
      EXPECT_FALSE(record.violation_classes.empty());
    }
  }
}

// --- Per-round cell aggregation (--round-stats) ---------------------------

TEST(Campaign, RoundStatsOffByDefaultKeepsOutputUnchanged) {
  const CampaignSpec spec = small_spec();
  const CampaignResult result = run_campaign(spec, {});
  for (const CellAggregate& aggregate : result.aggregates) {
    EXPECT_TRUE(aggregate.per_round.empty());
  }
  EXPECT_EQ(cells_text(spec, result).find("per_round"), std::string::npos);
}

TEST(Campaign, RoundStatsAggregateByteIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = small_spec();
  CampaignOptions serial;
  serial.threads = 1;
  serial.round_stats = true;
  CampaignOptions parallel;
  parallel.threads = 8;
  parallel.round_stats = true;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, parallel);
  const std::string text_a = cells_text(spec, a);
  EXPECT_EQ(text_a, cells_text(spec, b));
  EXPECT_NE(text_a.find("\"per_round\""), std::string::npos);
}

TEST(Campaign, RoundStatsSeriesAreConsistentWithCellTotals) {
  const CampaignSpec spec = small_spec();
  CampaignOptions options;
  options.round_stats = true;
  const CampaignResult result = run_campaign(spec, options);
  ASSERT_FALSE(result.aggregates.empty());
  for (std::size_t slot = 0; slot < result.aggregates.size(); ++slot) {
    const CellAggregate& aggregate = result.aggregates[slot];
    ASSERT_FALSE(aggregate.per_round.empty());
    // The per-round message series sums back to the cell's total message
    // aggregate exactly (integer sums, no averaging involved). A round
    // some runs never reached carries count < executed, never more.
    std::int64_t sum_over_rounds = 0;
    for (const CellAggregate::RoundStats& round : aggregate.per_round) {
      ASSERT_GE(round.messages.count(), 1u);
      ASSERT_LE(round.messages.count(), aggregate.executed);
      sum_over_rounds += round.messages.sum();
    }
    EXPECT_EQ(sum_over_rounds, aggregate.messages.sum());
  }

  // The emitted JSONL carries one per_round entry per executed round,
  // parseable by the production JSON reader.
  std::istringstream lines(cells_text(spec, result));
  std::string line;
  std::size_t checked = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue record = obs::parse_json(line);
    const obs::JsonValue& per_round = record.at("per_round");
    ASSERT_FALSE(per_round.as_array().empty());
    std::int64_t expected_round = 1;
    for (const obs::JsonValue& entry : per_round.as_array()) {
      EXPECT_EQ(entry.at("round").as_int(), expected_round++);
      EXPECT_GE(entry.at("messages").at("count").as_int(), 1);
      EXPECT_TRUE(entry.find("bits") != nullptr);
      EXPECT_TRUE(entry.find("correct_messages") != nullptr);
      EXPECT_TRUE(entry.find("equivocating_sends") != nullptr);
    }
    ++checked;
  }
  EXPECT_EQ(checked, result.aggregates.size());
}

}  // namespace
}  // namespace byzrename::exp
