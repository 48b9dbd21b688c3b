// byzrename — command-line driver for any renaming scenario.
//
// Examples:
//   byzrename --algorithm op --n 13 --t 4 --adversary asymflood
//   byzrename --algorithm fast --n 11 --t 2 --adversary suppress --seed 9
//   byzrename --algorithm op --n 10 --t 3 --faults 1 --iterations 12 --trace
//   byzrename --n 13 --t 4 --adversary asymflood --json out.jsonl --trace-out out.trace.json
//   byzrename --list-adversaries
//
// Exit code 0 iff every renaming property held; 2 on usage errors.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/adversary.h"
#include "core/harness.h"
#include "core/op_renaming.h"
#include "core/phase.h"
#include "exp/campaign.h"
#include "exp/campaign_io.h"
#include "exp/executor.h"
#include "exp/progress.h"
#include "exp/repro.h"
#include "sim/fault.h"
#include "obs/complexity_audit.h"
#include "obs/http/buildinfo.h"
#include "obs/http/exposition.h"
#include "obs/http/http_server.h"
#include "obs/metrics_registry.h"
#include "obs/prof/alloc_interpose.h"
#include "obs/prof/profile_io.h"
#include "obs/prof/profiler.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "svc/api.h"
#include "trace/event_log.h"
#include "trace/table.h"

namespace {

using namespace byzrename;

/// SIGINT/SIGTERM request a cooperative stop: single runs abort at the
/// next round boundary, --repeat stops starting new runs. Sinks flush
/// whatever was collected and the process exits 130 (campaign-tool
/// semantics). A second signal hard-exits immediately.
std::atomic<bool> g_interrupted{false};

extern "C" void handle_interrupt(int) {
  if (g_interrupted.exchange(true)) std::_Exit(130);
}

/// Thrown out of run_scenario by the interrupt observer; deliberately
/// not a std::exception so the generic error path cannot swallow it.
struct InterruptedRun {};

/// Writes one output file through @p render; an empty @p path writes
/// nothing. Returns false (after saying why) when the path cannot be
/// opened.
template <class Render>
bool write_file(const std::string& path, const char* flag, const Render& render) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "byzrename: cannot open " << flag << " path: " << path << '\n';
    return false;
  }
  render(out);
  return true;
}

void print_usage() {
  std::cout <<
      "usage: byzrename [options]\n"
      "  --algorithm <op|const|fast|crash|consensus|bit|translated>   protocol (default op)\n"
      "  --n <int>             number of processes (default 10)\n"
      "  --t <int>             fault budget (default 3)\n"
      "  --faults <int>        actual faulty processes, <= t (default t)\n"
      "  --adversary <name>    Byzantine strategy (default silent)\n"
      "  --seed <uint64>       run seed (default 1)\n"
      "  --iterations <int>    voting iterations override (Alg. 1 only)\n"
      "  --rank-kernel <k>     voting arithmetic: fixed (default), exact (the\n"
      "                        oracle), or check (both in lockstep, throw on\n"
      "                        divergence); all three are observably identical\n"
      "  --no-validation       ABLATION: disable the Alg. 2 isValid filter\n"
      "  --ids <a,b,c,...>     explicit correct-process ids\n"
      "  --fault-plan <spec>   inject link/crash/partition faults, e.g.\n"
      "                        \"drop:0.2+crash:3@2..5\" (grammar: docs/FAULTS.md)\n"
      "  --repro <path>        replay a byzrename.repro/1 bundle (--repeat K replays it\n"
      "                        K times; exit 0 iff all verdicts match the bundle)\n"
      "  --repro-out <path>    write the byzrename.repro-verdict/1 replay outcome\n"
      "  --verdict-out <path>  write the single run's byzrename.verdict/1 document —\n"
      "                        byte-identical to what byzrenamed serves for the same\n"
      "                        scenario (not valid with --repeat/--repro/--ids)\n"
      "  --repeat <int>        run the scenario K times under derived seeds and print\n"
      "                        aggregate decide-round stats (campaign engine)\n"
      "  --threads <int>       worker threads for --repeat/--repro, >= 1\n"
      "                        (default: hardware concurrency)\n"
      "  --trace               print per-round metrics\n"
      "  --json <path>         write a JSONL run report (schema byzrename.run/1)\n"
      "  --trace-out <path>    write a Chrome trace-event file (chrome://tracing, Perfetto)\n"
      "  --metrics-out <path>  write a Prometheus text dump of the run's metrics registry\n"
      "  --metrics-jsonl <path> write the round-resolved timeseries (byzrename.metrics/1)\n"
      "  --serve <port>        expose live /metrics, /healthz, /progress on\n"
      "                        127.0.0.1:<port> during the run (0 = ephemeral port;\n"
      "                        not valid with --repro)\n"
      "  --prom-out <path>     final Prometheus snapshot through the same exposition\n"
      "                        path /metrics serves (registry + process gauges)\n"
      "  --profile             attach the phase-attributed profiler (timer tree, hardware\n"
      "                        counters when perf_event_open allows, per-scope allocation\n"
      "                        attribution) and print the scope tree; with --serve the\n"
      "                        live tree is at GET /profile\n"
      "  --profile-out <path>  write the byzrename.profile/1 document (implies --profile;\n"
      "                        with --repeat: one kind-\"cell\" aggregate line)\n"
      "  --flame-out <path>    write collapsed stacks for flamegraph.pl / speedscope\n"
      "                        (implies --profile; single run only)\n"
      "  --audit               check the paper's complexity budgets (steps, messages,\n"
      "                        bit sizes, Delta_r contraction) and print the verdict;\n"
      "                        exit 1 if any bound is violated\n"
      "  --audit-out <path>    write the byzrename.audit/1 verdict record (implies --audit)\n"
      "  --report              print the JSON run report to stdout\n"
      "  --quiet               print only the verdict line\n"
      "  --list-adversaries    list registered strategies and exit\n"
      "  --help                this text\n"
      "\n"
      "Report schema and trace-loading instructions: docs/OBSERVABILITY.md\n";
}

struct CliError {
  std::string message;
};

/// Strict full-token integer parse: no std::stoll, so malformed input
/// ("1x", "x", overflow) becomes a CliError with usage instead of an
/// uncaught exception.
template <typename Int>
Int parse_number(std::string_view flag, std::string_view text) {
  Int value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw CliError{std::string(flag) + ": value out of range: " + std::string(text)};
  }
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw CliError{std::string(flag) + " expects an integer, got: " +
                   (text.empty() ? std::string("(empty)") : std::string(text))};
  }
  return value;
}

std::vector<sim::Id> parse_ids(const std::string& csv) {
  std::vector<sim::Id> ids;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!token.empty()) ids.push_back(parse_number<sim::Id>("--ids", token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (ids.empty()) throw CliError{"--ids expects a comma-separated id list"};
  return ids;
}

struct Options {
  core::ScenarioConfig config;
  bool trace = false;
  bool quiet = false;
  bool report = false;
  int repeat = 1;
  int threads = 0;
  std::string json_path;
  std::string trace_out_path;
  std::string repro_path;
  std::string repro_out_path;
  std::string verdict_out_path;
  std::string metrics_out_path;
  std::string metrics_jsonl_path;
  std::string audit_out_path;
  std::string prom_out_path;
  std::string profile_out_path;
  std::string flame_out_path;
  int serve_port = -1;  ///< -1 = no server; 0 = ephemeral port
  bool audit = false;
  bool profile = false;
};

Options parse(int argc, char** argv) {
  Options options;
  options.config.params = {.n = 10, .t = 3};
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw CliError{std::string(argv[i]) + " needs a value"};
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      print_usage();
      std::exit(0);
    } else if (arg == "--list-adversaries") {
      for (const std::string& name : adversary::adversary_names()) std::cout << name << '\n';
      std::exit(0);
    } else if (arg == "--algorithm") {
      const std::string value = next_value(i);
      const auto algorithm = core::algorithm_from_token(value);
      if (!algorithm.has_value()) throw CliError{"unknown algorithm: " + value};
      options.config.algorithm = *algorithm;
    } else if (arg == "--n") {
      options.config.params.n = parse_number<int>(arg, next_value(i));
    } else if (arg == "--t") {
      options.config.params.t = parse_number<int>(arg, next_value(i));
    } else if (arg == "--faults") {
      options.config.actual_faults = parse_number<int>(arg, next_value(i));
    } else if (arg == "--adversary") {
      options.config.adversary = next_value(i);
    } else if (arg == "--seed") {
      options.config.seed = parse_number<std::uint64_t>(arg, next_value(i));
    } else if (arg == "--iterations") {
      options.config.options.approximation_iterations = parse_number<int>(arg, next_value(i));
    } else if (arg == "--rank-kernel") {
      const std::string value = next_value(i);
      const auto kernel = core::rank_kernel_from_token(value);
      if (!kernel.has_value()) {
        throw CliError{"--rank-kernel expects fixed, exact, or check, got '" + value + "'"};
      }
      options.config.options.rank_kernel = *kernel;
    } else if (arg == "--no-validation") {
      options.config.options.validate_votes = false;
    } else if (arg == "--ids") {
      options.config.correct_ids = parse_ids(next_value(i));
    } else if (arg == "--fault-plan") {
      try {
        options.config.fault_plan = sim::parse_fault_plan(next_value(i));
      } catch (const std::invalid_argument& error) {
        throw CliError{error.what()};
      }
    } else if (arg == "--repro") {
      options.repro_path = next_value(i);
    } else if (arg == "--repro-out") {
      options.repro_out_path = next_value(i);
    } else if (arg == "--verdict-out") {
      options.verdict_out_path = next_value(i);
      if (options.verdict_out_path.empty()) throw CliError{"--verdict-out needs a path"};
    } else if (arg == "--repeat") {
      options.repeat = parse_number<int>(arg, next_value(i));
      if (options.repeat < 1) throw CliError{"--repeat must be >= 1"};
    } else if (arg == "--threads") {
      options.threads = parse_number<int>(arg, next_value(i));
      if (options.threads < 1) {
        throw CliError{"--threads must be >= 1 (omit the flag for hardware concurrency)"};
      }
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--json") {
      options.json_path = next_value(i);
    } else if (arg == "--trace-out") {
      options.trace_out_path = next_value(i);
    } else if (arg == "--metrics-out") {
      options.metrics_out_path = next_value(i);
    } else if (arg == "--metrics-jsonl") {
      options.metrics_jsonl_path = next_value(i);
    } else if (arg == "--serve") {
      const int port = parse_number<int>(arg, next_value(i));
      if (port < 0 || port > 65535) throw CliError{"--serve expects a port in [0, 65535]"};
      options.serve_port = port;
    } else if (arg == "--prom-out") {
      options.prom_out_path = next_value(i);
      if (options.prom_out_path.empty()) throw CliError{"--prom-out needs a path"};
    } else if (arg == "--profile") {
      options.profile = true;
    } else if (arg == "--profile-out") {
      options.profile_out_path = next_value(i);
      if (options.profile_out_path.empty()) throw CliError{"--profile-out needs a path"};
      options.profile = true;
    } else if (arg == "--flame-out") {
      options.flame_out_path = next_value(i);
      if (options.flame_out_path.empty()) throw CliError{"--flame-out needs a path"};
      options.profile = true;
    } else if (arg == "--audit") {
      options.audit = true;
    } else if (arg == "--audit-out") {
      options.audit_out_path = next_value(i);
      options.audit = true;
    } else if (arg == "--report") {
      options.report = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      throw CliError{"unknown option: " + std::string(arg)};
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const CliError& error) {
    std::cerr << "byzrename: " << error.message << "\n\n";
    print_usage();
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "byzrename: bad argument: " << error.what() << '\n';
    return 2;
  }

  if (!options.repro_path.empty() &&
      (options.serve_port >= 0 || !options.prom_out_path.empty() || options.profile)) {
    // Replays must stay pure: the verdict contract is "the replay IS the
    // original execution", and a telemetry plane has nothing to observe
    // that the bundle does not already pin.
    std::cerr << "byzrename: --serve/--prom-out/--profile are not valid with --repro\n";
    return 2;
  }
  if (options.repeat > 1 && !options.flame_out_path.empty()) {
    // Collapsed stacks render ONE tree; the repeat aggregate merges many.
    // The kind-"cell" --profile-out document is the aggregate answer.
    std::cerr << "byzrename: --flame-out describes a single run; not valid with --repeat\n";
    return 2;
  }
  if (!options.verdict_out_path.empty() &&
      (options.repeat > 1 || !options.repro_path.empty() ||
       !options.config.correct_ids.empty())) {
    // The verdict document carries the PORTABLE scenario; --ids pins
    // machine-chosen identities the byzrename.repro/1 shape cannot
    // express, and --repeat/--repro describe other execution modes.
    std::cerr << "byzrename: --verdict-out describes a single seeded run; "
                 "not valid with --repeat/--repro/--ids\n";
    return 2;
  }

  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);

  if (!options.repro_path.empty()) {
    // Repro mode: replay a byzrename.repro/1 bundle bit-for-bit. The
    // bundle's own seed is used verbatim (no campaign derivation), so the
    // replay IS the original execution; --repeat K runs it K times on the
    // work-stealing pool and demands identical verdicts at any --threads.
    std::ifstream in(options.repro_path);
    if (!in.is_open()) {
      std::cerr << "byzrename: cannot open --repro bundle: " << options.repro_path << '\n';
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    exp::ReproBundle bundle;
    try {
      bundle = exp::parse_repro_bundle(buffer.str());
    } catch (const std::exception& error) {
      std::cerr << "byzrename: " << options.repro_path << ": " << error.what() << '\n';
      return 2;
    }

    const std::size_t replays = static_cast<std::size_t>(options.repeat);
    std::vector<exp::ReproVerdict> verdicts(replays);
    exp::Executor executor(options.threads);
    executor.run(replays, [&](std::size_t index) {
      verdicts[index] = exp::evaluate_scenario(bundle.scenario);
    });
    const exp::ReproVerdict& observed = verdicts.front();
    const bool consistent = std::all_of(
        verdicts.begin(), verdicts.end(),
        [&observed](const exp::ReproVerdict& v) { return v == observed; });
    const bool matches = observed == bundle.expected;

    if (!options.repro_out_path.empty()) {
      std::ofstream verdict_out(options.repro_out_path, std::ios::trunc);
      if (!verdict_out.is_open()) {
        std::cerr << "byzrename: cannot open --repro-out path: " << options.repro_out_path
                  << '\n';
        return 2;
      }
      exp::write_repro_verdict(verdict_out, bundle, observed, options.repeat, consistent);
    }
    if (options.report || options.repro_out_path.empty()) {
      exp::write_repro_verdict(std::cout, bundle, observed, options.repeat, consistent);
    }
    if (!options.quiet) {
      std::cout << "repro: " << options.repro_path << " replayed " << replays << "x on "
                << executor.threads() << " thread(s): observed "
                << exp::to_string(observed.kind)
                << (observed.classes.empty() ? "" : " [" + observed.classes + "]") << ", "
                << (consistent ? "consistent" : "INCONSISTENT") << ", "
                << (matches ? "matches expected verdict" : "DOES NOT match expected verdict")
                << '\n';
    }
    return matches && consistent ? 0 : 1;
  }

  if (options.repeat > 1) {
    // Repeat mode: the same scenario K times under derived seeds, on the
    // campaign engine's work-stealing pool. Aggregate stats replace the
    // single-run name table; --json/--report stream per-run reports.
    if (!options.trace_out_path.empty() || options.trace) {
      std::cerr << "byzrename: --trace/--trace-out describe a single run; not valid with --repeat\n";
      return 2;
    }
    if (options.audit || !options.metrics_out_path.empty() ||
        !options.metrics_jsonl_path.empty()) {
      std::cerr << "byzrename: --metrics-*/--audit describe a single run; not valid with --repeat\n";
      return 2;
    }
    exp::CampaignSpec spec;
    spec.name = "cli-repeat";
    spec.scenarios.push_back(
        {options.config.algorithm, options.config.params, options.config.adversary});
    spec.repetitions = options.repeat;
    spec.master_seed = options.config.seed;
    spec.options = options.config.options;
    spec.actual_faults = options.config.actual_faults;
    spec.fault_plan = options.config.fault_plan;

    exp::CampaignOptions run;
    run.threads = options.threads;
    run.cancel = &g_interrupted;
    run.profile = options.profile;
    std::ofstream repeat_json;
    if (!options.json_path.empty()) {
      repeat_json.open(options.json_path, std::ios::trunc);
      if (!repeat_json.is_open()) {
        std::cerr << "byzrename: cannot open --json path: " << options.json_path << '\n';
        return 2;
      }
      run.runs_out = &repeat_json;
    } else if (options.report) {
      run.runs_out = &std::cout;
    }
    if (!options.config.correct_ids.empty()) {
      const std::vector<sim::Id>& ids = options.config.correct_ids;
      run.configure = [&ids](std::size_t, core::ScenarioConfig& config) {
        config.correct_ids = ids;
      };
    }

    // Live telemetry plane for the repeat sweep: the campaign tracker
    // feeds /progress and the campaign-level Prometheus families; the
    // same hub renders the --prom-out end-of-sweep snapshot.
    exp::ProgressTracker progress;
    obs::ExpositionHub hub;
    std::optional<obs::HttpServer> server;
    if (options.serve_port >= 0 || !options.prom_out_path.empty()) {
      run.progress = &progress;
      hub.add_writer([&progress](std::ostream& os) { progress.write_prometheus(os); });
      hub.add_writer([](std::ostream& os) { obs::write_process_metrics(os); });
    }
    if (options.serve_port >= 0) {
      server.emplace();
      obs::mount_prometheus(*server, hub);
      obs::mount_healthz(*server);
      obs::mount_buildinfo(*server);
      obs::mount_json(*server, "/progress",
                      [&progress](std::ostream& os) { progress.write_progress_json(os); });
      try {
        server->start(static_cast<std::uint16_t>(options.serve_port));
      } catch (const std::exception& error) {
        std::cerr << "byzrename: " << error.what() << '\n';
        return 2;
      }
      if (!options.quiet) {
        std::cout << "[serve] live telemetry on http://127.0.0.1:" << server->port()
                  << "  (/metrics /healthz /progress /buildinfo)\n";
      }
    }

    exp::CampaignResult result;
    try {
      result = exp::run_campaign(spec, run);
    } catch (const std::exception& error) {
      std::cerr << "byzrename: " << error.what() << '\n';
      return 2;
    }

    if (!options.prom_out_path.empty()) {
      std::ofstream prom(options.prom_out_path, std::ios::trunc);
      if (!prom.is_open()) {
        std::cerr << "byzrename: cannot open --prom-out path: " << options.prom_out_path << '\n';
        return 2;
      }
      hub.write(prom);
    }
    if (options.profile && !result.profiles.empty()) {
      if (!options.profile_out_path.empty()) {
        std::ofstream profile_out(options.profile_out_path, std::ios::trunc);
        if (!profile_out.is_open()) {
          std::cerr << "byzrename: cannot open --profile-out path: " << options.profile_out_path
                    << '\n';
          return 2;
        }
        exp::write_campaign_profiles(profile_out, spec, result);
      }
      if (!options.quiet) {
        const obs::prof::ProfileAggregate& aggregate = result.profiles.front();
        std::cout << "profile     " << aggregate.runs() << " run(s) aggregated"
                  << (aggregate.hw_available() ? ", hardware counters on" : ", timer-only")
                  << '\n';
        trace::Table profile_table({"scope", "calls", "wall s", "cpu s", "allocs"});
        for (const auto& [path, entry] : aggregate.entries()) {
          std::ostringstream wall, cpu;
          wall.precision(4);
          wall << static_cast<double>(entry.wall_ns) * 1e-9;
          cpu.precision(4);
          cpu << static_cast<double>(entry.cpu_ns) * 1e-9;
          profile_table.add_row({std::string(static_cast<std::size_t>(entry.depth) * 2, ' ') +
                                     entry.name,
                                 std::to_string(entry.calls), wall.str(), cpu.str(),
                                 std::to_string(entry.allocs)});
        }
        profile_table.print(std::cout);
        std::cout << '\n';
      }
    }
    const exp::CellAggregate& stats = result.aggregates.at(0);
    if (!options.quiet) {
      std::cout << "algorithm   " << core::to_string(options.config.algorithm) << '\n'
                << "system      N=" << options.config.params.n
                << " t=" << options.config.params.t
                << " adversary=" << options.config.adversary
                << " master seed=" << options.config.seed << '\n'
                << "runs        " << stats.executed << " x derived seeds, " << result.threads
                << " thread(s), " << result.wall_seconds << "s\n\n";
      trace::Table table({"metric", "min", "mean", "p50", "p95", "p99", "max"});
      const auto stat_row = [&table](const std::string& name, const exp::StreamingStats& s) {
        table.add_row({name, std::to_string(s.min()), std::to_string(s.mean()),
                       std::to_string(s.quantile(0.5)), std::to_string(s.quantile(0.95)),
                       std::to_string(s.quantile(0.99)), std::to_string(s.max())});
      };
      stat_row("decide rounds", stats.rounds);
      stat_row("messages", stats.messages);
      stat_row("max name", stats.max_name);
      stat_row("rejected votes", stats.rejected_votes);
      table.print(std::cout);
      std::cout << '\n';
    }
    std::cout << "verdict: " << stats.ok << '/' << stats.executed
              << " runs hold all renaming properties";
    if (stats.first_violation_rep >= 0) {
      std::cout << " (first violation at rep " << stats.first_violation_rep << ": "
                << stats.first_violation << ')';
    }
    if (result.interrupted) std::cout << " [interrupted]";
    std::cout << '\n';
    if (result.interrupted) return 130;
    return result.all_ok() ? 0 : 1;
  }

  // Observer wiring, in list order: the interrupt check, then the
  // optional sinks (a JSONL file report, a stdout report, metrics, the
  // auditor, the live registry). The structured event log for the
  // trace-event exporter is attached separately.
  //
  // SIGINT/SIGTERM abort the run at the next round boundary (the same
  // cooperative granularity as the repro watchdog), after which every
  // sink flushes what it collected and the process exits 130 — a
  // Ctrl-C'd run leaves valid partial artifacts, not truncated files.
  obs::RoundProbe interrupt_check([](sim::Round, const sim::Network&) {
    if (g_interrupted.load(std::memory_order_acquire)) throw InterruptedRun{};
  });
  std::vector<obs::RunObserver*>& observers = options.config.observers;
  observers.push_back(&interrupt_check);
  std::ofstream json_out;
  std::optional<obs::RunReportSink> json_sink;
  if (!options.json_path.empty()) {
    json_out.open(options.json_path, std::ios::trunc);
    if (!json_out.is_open()) {
      std::cerr << "byzrename: cannot open --json path: " << options.json_path << '\n';
      return 2;
    }
    observers.push_back(&json_sink.emplace(json_out));
  }
  std::optional<obs::RunReportSink> stdout_sink;
  if (options.report) observers.push_back(&stdout_sink.emplace(std::cout));
  std::optional<obs::MetricsSink> metrics_sink;
  if (!options.metrics_out_path.empty() || !options.metrics_jsonl_path.empty()) {
    observers.push_back(&metrics_sink.emplace());
  }
  std::optional<obs::ComplexityAuditor> auditor;
  if (options.audit) observers.push_back(&auditor.emplace());

  // Live telemetry plane for a single run: a mutex-guarded metrics sink
  // feeds the run's registry to GET /metrics while the round loop is
  // producing it, and a one-cell progress tracker answers /progress.
  // --prom-out renders the same hub after the run, so a mid-run scrape
  // and the final snapshot differ only by the in-flight counters.
  const bool live = options.serve_port >= 0 || !options.prom_out_path.empty();
  exp::ProgressTracker progress;
  std::optional<obs::GuardedMetricsSink> live_sink;
  obs::ExpositionHub hub;
  std::optional<obs::HttpServer> server;
  std::optional<obs::prof::Profiler> profiler;
  if (options.profile) {
    profiler.emplace();
    options.config.profiler = &*profiler;
  }
  if (live) {
    observers.push_back(&live_sink.emplace());
    std::vector<exp::CampaignCell> cells(1);
    cells[0].algorithm = options.config.algorithm;
    cells[0].params = options.config.params;
    cells[0].adversary = options.config.adversary;
    progress.begin("cli-single", cells, 1, 1);
    hub.add_writer([&progress](std::ostream& os) { progress.write_prometheus(os); });
    hub.add_writer([&sink = *live_sink](std::ostream& os) { sink.write_prometheus(os); });
    hub.add_writer([](std::ostream& os) { obs::write_process_metrics(os); });
    if (profiler) {
      hub.add_writer([&prof = *profiler](std::ostream& os) {
        obs::prof::write_profile_prometheus(os, prof.snapshot());
      });
    }
  }
  if (options.serve_port >= 0) {
    server.emplace();
    obs::mount_prometheus(*server, hub);
    obs::mount_healthz(*server);
    obs::mount_buildinfo(*server);
    obs::mount_json(*server, "/progress",
                    [&progress](std::ostream& os) { progress.write_progress_json(os); });
    if (profiler) obs::prof::mount_profile(*server, *profiler, "cli-single");
    try {
      server->start(static_cast<std::uint16_t>(options.serve_port));
    } catch (const std::exception& error) {
      std::cerr << "byzrename: " << error.what() << '\n';
      return 2;
    }
    if (!options.quiet) {
      std::cout << "[serve] live telemetry on http://127.0.0.1:" << server->port()
                << "  (/metrics /healthz /progress /buildinfo"
                << (profiler ? " /profile" : "") << ")\n";
    }
  }

  trace::EventLog event_log;
  if (!options.trace_out_path.empty()) options.config.event_log = &event_log;

  // The files that carry the run's metrics: written once the run
  // finished, and with partial data when it was interrupted. Returns
  // false (after saying why) when a path cannot be opened.
  const auto write_metrics_files = [&]() {
    bool ok = write_file(options.prom_out_path, "--prom-out",
                         [&](std::ostream& os) { hub.write(os); });
    if (metrics_sink.has_value()) {
      ok = write_file(options.metrics_out_path, "--metrics-out",
                      [&](std::ostream& os) { metrics_sink->write_prometheus(os); }) &&
           ok;
      ok = write_file(options.metrics_jsonl_path, "--metrics-jsonl",
                      [&](std::ostream& os) { metrics_sink->write_metrics_jsonl(os); }) &&
           ok;
    }
    return ok;
  };

  core::ScenarioResult result;
  if (live) progress.task_started();
  try {
    result = core::run_scenario(options.config);
  } catch (const InterruptedRun&) {
    if (live) progress.finish(/*interrupted=*/true);
    (void)write_metrics_files();
    std::cerr << "byzrename: interrupted; partial sinks flushed\n";
    return 130;
  } catch (const std::exception& error) {
    std::cerr << "byzrename: " << error.what() << '\n';
    return 2;
  }
  if (live) {
    progress.task_finished(0, result.report.all_ok(), /*quarantined=*/false);
    progress.finish(/*interrupted=*/false);
  }

  if (!write_metrics_files()) return 2;

  std::optional<obs::prof::ProfileSnapshot> profile_snapshot;
  if (profiler) profile_snapshot = profiler->snapshot();
  if (profile_snapshot) {
    const obs::prof::ProfileSnapshot& snapshot = *profile_snapshot;
    if (!write_file(options.profile_out_path, "--profile-out",
                    [&](std::ostream& os) {
                      obs::prof::write_profile_json(os, snapshot, "cli-single");
                    }) ||
        !write_file(options.flame_out_path, "--flame-out",
                    [&](std::ostream& os) { obs::prof::write_collapsed(os, snapshot); })) {
      return 2;
    }
  }

  if (!options.trace_out_path.empty()) {
    std::ofstream trace_out(options.trace_out_path, std::ios::trunc);
    if (!trace_out.is_open()) {
      std::cerr << "byzrename: cannot open --trace-out path: " << options.trace_out_path << '\n';
      return 2;
    }
    const int faults =
        options.config.actual_faults >= 0 ? options.config.actual_faults : options.config.params.t;
    obs::TraceMeta meta;
    meta.title = std::string(core::to_string(options.config.algorithm)) +
                 " N=" + std::to_string(options.config.params.n) +
                 " t=" + std::to_string(options.config.params.t) + " adversary=" +
                 options.config.adversary + " seed=" + std::to_string(options.config.seed);
    meta.process_count = options.config.params.n;
    meta.rounds = result.run.rounds;
    meta.byzantine.assign(static_cast<std::size_t>(options.config.params.n), false);
    for (int i = options.config.params.n - faults; i < options.config.params.n; ++i) {
      meta.byzantine[static_cast<std::size_t>(i)] = true;
    }
    // Phase lane + counter tracks: the resolved iteration count follows
    // from expected_steps (op/const run exactly 4 + iterations rounds).
    int iterations = -1;
    if (options.config.algorithm == core::Algorithm::kOpRenaming ||
        options.config.algorithm == core::Algorithm::kOpRenamingConstantTime) {
      iterations = core::expected_steps(options.config.algorithm, options.config.params,
                                        options.config.options) - 4;
    }
    meta.phase_labels.reserve(static_cast<std::size_t>(result.run.rounds));
    for (int r = 1; r <= result.run.rounds; ++r) {
      meta.phase_labels.push_back(
          core::phase_label(core::round_phase(options.config.algorithm, r, iterations)));
    }
    meta.metrics = &result.run.metrics;
    obs::write_chrome_trace(trace_out, event_log, meta);
  }

  // The portable scenario + the digest evaluate_scenario would have
  // produced for it. Both serialize through the shared exp:: writers, so
  // this document is byte-identical to the byzrenamed service's verdict
  // for the same submission — the CI smoke test diffs them.
  if (!write_file(options.verdict_out_path, "--verdict-out", [&](std::ostream& os) {
        exp::ReproScenario scenario;
        scenario.algorithm = options.config.algorithm;
        scenario.params = options.config.params;
        scenario.adversary = options.config.adversary;
        scenario.actual_faults = options.config.actual_faults;
        scenario.seed = options.config.seed;
        scenario.iterations = options.config.options.approximation_iterations;
        scenario.validate_votes = options.config.options.validate_votes;
        scenario.extra_rounds = options.config.extra_rounds;
        scenario.fault_plan = options.config.fault_plan;
        svc::write_verdict_document(os, scenario, exp::verdict_of(result));
      })) {
    return 2;
  }

  bool audit_ok = true;
  if (auditor.has_value()) {
    audit_ok = auditor->all_ok();
    if (!write_file(options.audit_out_path, "--audit-out",
                    [&](std::ostream& os) { auditor->write_audit_jsonl(os); })) {
      return 2;
    }
    if (!options.quiet || !audit_ok) {
      if (audit_ok) {
        std::cout << "audit: " << auditor->bounds().size()
                  << " complexity bound(s) checked, all hold\n";
      } else {
        for (const obs::AuditBound& bound : auditor->bounds()) {
          if (bound.ok) continue;
          std::cout << "audit: VIOLATED " << bound.bound << " [" << bound.formula
                    << "]: observed " << bound.observed << (bound.upper ? " > " : " < ")
                    << "limit " << bound.limit
                    << (bound.detail.empty() ? "" : " (" + bound.detail + ")") << '\n';
        }
      }
    }
  }

  if (!options.quiet) {
    std::cout << "algorithm   " << core::to_string(options.config.algorithm) << '\n'
              << "system      N=" << options.config.params.n << " t=" << options.config.params.t
              << " adversary=" << options.config.adversary << " seed=" << options.config.seed
              << '\n'
              << "rounds      " << result.run.rounds << '\n'
              << "namespace   [1.." << result.target_namespace << "], max used "
              << result.report.max_name << '\n'
              << "messages    " << result.run.metrics.total_messages() << " ("
              << result.run.metrics.total_bits() / 8 << " bytes on the wire)\n\n";
    trace::Table table({"original id", "new name"});
    for (const core::NamedProcess& p : result.named) {
      table.add_row({std::to_string(p.original_id),
                     p.new_name.has_value() ? std::to_string(*p.new_name) : "(none)"});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  if (profile_snapshot && !options.quiet) {
    std::cout << "profile: " << profile_snapshot->nodes.size() << " scope(s), "
              << (profile_snapshot->hw_available ? "hardware counters on" : "timer-only mode")
              << (obs::prof::AllocProfiler::interposed() ? "" : ", allocation counting off")
              << '\n';
    trace::Table profile_table({"scope", "calls", "wall s", "cpu s", "allocs", "cycles"});
    for (const obs::prof::ProfileNode& node : profile_snapshot->nodes) {
      std::ostringstream wall, cpu;
      wall.precision(4);
      wall << static_cast<double>(node.wall_ns) * 1e-9;
      cpu.precision(4);
      cpu << static_cast<double>(node.cpu_ns) * 1e-9;
      profile_table.add_row(
          {std::string(static_cast<std::size_t>(node.depth) * 2, ' ') + node.name,
           std::to_string(node.calls), wall.str(), cpu.str(), std::to_string(node.allocs),
           std::to_string(node.hw.cycles)});
    }
    profile_table.print(std::cout);
    std::cout << '\n';
  }

  if (options.trace) {
    trace::Table table({"round", "messages", "bytes"});
    for (std::size_t r = 0; r < result.run.metrics.per_round().size(); ++r) {
      table.add_row({std::to_string(r + 1),
                     std::to_string(result.run.metrics.per_round()[r].messages),
                     std::to_string(result.run.metrics.per_round()[r].bits / 8)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  std::cout << "verdict: "
            << (result.report.all_ok() ? "all renaming properties hold" : result.report.detail)
            << '\n';
  return result.report.all_ok() && audit_ok ? 0 : 1;
}
