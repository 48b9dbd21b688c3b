#include "obs/bench_report.h"

#include <filesystem>
#include <ostream>
#include <system_error>

#include "exp/campaign_io.h"
#include "obs/json.h"
#include "obs/schema.h"

namespace byzrename::obs {

namespace {

// A bench name carrying an explicit .json/.jsonl extension names the
// output file verbatim (the perf baseline lands at the repo root as
// BENCH_hotpath.json); the schema's `bench` field always drops it.
std::string strip_report_extension(std::string name) {
  if (name.ends_with(".jsonl")) name.resize(name.size() - 6);
  else if (name.ends_with(".json")) name.resize(name.size() - 5);
  return name;
}

}  // namespace

BenchReporter::BenchReporter(std::string bench_name, std::string out_dir)
    : bench_(strip_report_extension(bench_name)), sink_(out_, bench_, &write_mutex_) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return;
  const bool explicit_file = bench_name.size() != bench_.size();
  path_ = out_dir + "/" + (explicit_file ? bench_name : bench_ + ".jsonl");
  out_.open(path_, std::ios::trunc);
}

core::ScenarioResult BenchReporter::run(core::ScenarioConfig config, std::string label) {
  // The shared sink buffers one run's rounds between start and end, so
  // whole scenarios are serialized; parallel throughput lives in
  // run_campaign(), which hands each worker a private sink.
  const std::lock_guard<std::mutex> lock(run_mutex_);
  if (enabled()) {
    sink_.set_label(std::move(label));
    config.observers.push_back(&sink_);
  }
  return core::run_scenario(config);
}

exp::CampaignResult BenchReporter::run_campaign(const exp::CampaignSpec& spec,
                                                exp::CampaignOptions options) {
  if (enabled()) {
    options.runs_out = &out_;
    options.runs_bench = bench_;
    options.runs_out_mutex = &write_mutex_;
  } else {
    options.runs_out = nullptr;
  }
  exp::CampaignResult result = exp::run_campaign(spec, options);
  if (enabled()) exp::write_campaign_cells(out_, spec, result);
  return result;
}

void BenchReporter::write_series(const std::string& label,
                                 const std::vector<std::pair<std::string, double>>& values) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(write_mutex_);
  JsonWriter json(out_);
  json.begin_object();
  json.field("schema", kSeriesSchema).field("bench", bench_).field("label", label);
  json.key("values").begin_object();
  for (const auto& [name, value] : values) json.field(name, value);
  json.end_object();
  json.end_object();
  out_ << '\n';
  out_.flush();
}

void BenchReporter::announce(std::ostream& os) const {
  if (enabled()) os << "\n[telemetry] run reports: " << path_ << "\n";
}

}  // namespace byzrename::obs
