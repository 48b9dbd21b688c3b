#ifndef BYZRENAME_OBS_SCHEMA_H
#define BYZRENAME_OBS_SCHEMA_H

namespace byzrename::obs {

/// Schema identifiers stamped into every JSONL record this subsystem
/// emits. Consumers (CI validation, EXPERIMENTS.md regeneration, the
/// BENCH_*.json trajectory) dispatch on the `schema` field and must
/// reject records whose major version they do not know.
///
/// Versioning contract: the suffix is `<name>/<major>`. Within one major
/// version fields are only ever ADDED, never renamed, retyped, or
/// removed, so a consumer written against `byzrename.run/1` keeps
/// working as the producer grows. Any breaking change bumps the major.
///
/// ## byzrename.run/1 — one finished scenario per line
///
/// Stable fields (always present):
///   schema            string   "byzrename.run/1"
///   scenario          object   resolved ScenarioConfig:
///     .algorithm        string   core::to_string(Algorithm)
///     .n .t .faults     int      system size / budget / actual faults
///     .adversary        string   registry name
///     .seed             uint64
///     .iterations       int      resolved voting iterations (-1 = n/a)
///     .validate_votes   bool     Alg. 2 isValid filter enabled
///     .target_namespace int      M promised for (algorithm, n, t)
///     .round_budget     int      runner's max_rounds
///   outcome           object
///     .rounds           int      synchronous rounds actually executed
///     .terminated       bool     every correct process decided in budget
///     .wall_seconds     double   whole-run wall clock
///     .max_name .min_name int    extremes of decided names
///     .accepted         object   {min,max} |accepted| over correct procs
///     .rejected_votes   int      votes/echoes killed by validation
///     .verdict          object   CheckReport: validity, termination,
///                                uniqueness, order_preservation, all_ok,
///                                classes (canonical comma-joined violated
///                                property classes, "" when all_ok),
///                                detail (string, empty when all_ok)
///   totals            object   whole-run communication counters:
///     .messages .bits .correct_messages .correct_bits   uint64
///     .equivocating_sends uint64  targeted sends by Byzantine processes
///     .max_message_bits .max_correct_message_bits       uint64
///     .injected_drops .injected_duplicates .injected_delays  uint64
///         fault-injector interventions (0 on clean-model runs)
///     .injected_forgeries .injected_restarts  uint64  impersonation /
///         transient-restart interventions; OMITTED when zero
///   per_round         array    one object per round, in order:
///     .round            int      1-based, matches the paper's "Step r"
///     .messages .bits .correct_messages .correct_bits .equivocating_sends
///     .max_message_bits .max_correct_message_bits   uint64  largest single
///         message charged in this round (added within major 1)
///     .wall_seconds     double   wall clock of this round
///
/// Optional fields (present when the producer had them):
///   bench             string   emitting bench binary
///   label             string   free-form row label from the bench
///   scenario.fault_plan string canonical fault-plan spec (sim/fault.h);
///                              present only on fault-injected runs
///   scenario.verdict.restarted / .recovered  int  transient-restart
///       dimension: processes re-initialized mid-protocol, and how many
///       re-joined, decided, and sit in no violation; present only when
///       restarted > 0
///   per_round[i].accepted        object {min,max}, Alg. 1/4 runs only
///   per_round[i].rejected_votes  int, cumulative up to this round
///   per_round[i].rank_spread / .rank_spread_exact    double / string
///       max_rank_spread(timely) — the Delta_r of Lemmas IV.7-9
///   per_round[i].adjacent_gap / .adjacent_gap_exact  double / string
///       min_adjacent_rank_gap — Corollary IV.6's delta-gap
///   per_round[i].fast_max_discrepancy / .fast_min_gap  int
///       Alg. 4 probe quantities (Lemmas VI.1 / VI.2)
///
/// ## byzrename.series/1 — free-form bench series
///
/// For benches whose measurements are not scenario runs (e.g. the scalar
/// AA contraction series of F3):
///   schema   string  "byzrename.series/1"
///   bench    string  emitting bench binary
///   label    string  row label
///   values   object  string -> double measurement map
///
/// ## byzrename.campaign/1 — one campaign cell aggregate per line
///
/// Produced by the src/exp campaign engine (docs/CAMPAIGNS.md). Every
/// field is DETERMINISTIC — a pure function of the spec and the per-run
/// counters, never of wall clocks or thread scheduling — so two files
/// from the same spec compare byte-for-byte regardless of --threads and
/// the union of --shard i/k outputs equals the unsharded file.
///
///   schema            string   "byzrename.campaign/1"
///   campaign          string   CampaignSpec::name
///   cell              string   "algorithm/nN/tT/adversary" join key
///   cell_index        int      position in the full (unsharded) expansion
///   algorithm n t adversary    the cell coordinates, as separate fields
///   reps              int      repetitions requested per cell
///   master_seed       uint64   campaign master seed
///   executed ok terminated int  run counts (executed < reps after fail-fast)
///   quarantined       int      runs excluded after exhausting retries.
///                              DETERMINISTIC only for exception-kind
///                              quarantines; with a run timeout configured
///                              the count may vary across machines — CI's
///                              byte-compare gate runs without timeouts
///   degradation       object   {termination,range,uniqueness,order}: runs
///                              violating each property class (a run can
///                              count toward several)
///   max_message_bits  uint64   largest message over the cell's runs
///   stats             object   per-metric aggregate objects, each
///                              {count,min,max,sum,mean,p50,p95,p99} with
///                              integer quantiles (nearest-rank samples):
///     .rounds .messages .correct_messages .bits .max_name .rejected_votes
///   first_violation   object?  {rep, detail} of the lowest-rep failing
///                              run; absent when the cell is clean
///   per_round         array?   present only with round-level aggregation
///                              enabled (--round-stats). One object per
///                              round index across the cell's runs:
///                              {round, messages, bits, correct_messages,
///                              equivocating_sends}, each the same
///                              deterministic aggregate object as stats.*
///                              (count < executed when some runs ended
///                              before this round). Added within major 1.
///
/// ## byzrename.campaign-summary/1 — one closing line per execution
///
/// The volatile counterpart (wall clock, thread count, steal count);
/// separate schema precisely because it is NOT deterministic:
///   schema cells runs executed violations quarantined cancelled threads
///   steals wall_seconds
///   interrupted       bool     true when the execution was stopped by an
///                              operator interrupt (SIGINT/SIGTERM through
///                              the campaign CLI); the cell lines then
///                              cover only the runs that finished. Added
///                              within major 1.
///   quarantined_runs  array  one object per quarantined run:
///     {cell, cell_index, rep, seed, kind, attempts, detail}
///   (quarantine lives here, not in campaign/1 cell lines, because
///   timeout-kind quarantines depend on wall clocks)
///
/// ## byzrename.progress/1 — live campaign progress snapshot
///
/// The body of GET /progress on the obs/http telemetry plane (and
/// nothing else: it is a point-in-time observation, never written into
/// recorded outputs). VOLATILE by construction — wall clocks, EWMA
/// throughput, and worker occupancy all enter it. One JSON document per
/// request:
///   schema            string   "byzrename.progress/1"
///   campaign          string   CampaignSpec::name ("" before begin)
///   state             string   idle | running | done | interrupted
///   total_runs        int      cells x repetitions this execution owns
///   completed ok violations quarantined   int   monotonic run counts
///   elapsed_seconds   double   frozen once the campaign finishes
///   runs_per_second   double   EWMA completion throughput (tau = 5 s)
///   runs_per_second_mean double  completed / elapsed
///   eta_seconds       double   remaining / throughput; 0 when done,
///                              negative while not yet estimable
///   rate_source       string   which throughput fed eta_seconds:
///                              "ewma" (warm EWMA), "mean" (EWMA not yet
///                              warm, completed/elapsed used instead), or
///                              "none" (no completions yet; eta_seconds
///                              is the -1 sentinel)
///   workers           object   {total, busy} executor occupancy
///   cells             array    one {cell, total, completed, ok,
///                              violations, quarantined} per cell, in
///                              deterministic expansion order
///
/// ## byzrename.metrics/1 — one protocol round per line
///
/// The round-resolved timeseries produced by obs::MetricsSink
/// (--metrics-jsonl). Fully DETERMINISTIC — no wall clocks — so a file
/// is golden-file comparable across machines and thread counts.
///
/// Stable fields (always present):
///   schema            string   "byzrename.metrics/1"
///   run               object   run identity:
///     .algorithm        string   core::to_string(Algorithm)
///     .n .t .faults     int
///     .adversary        string
///     .seed             uint64
///     .iterations       int      resolved voting iterations (-1 = n/a)
///   round             int      1-based synchronous round
///   phase             string   core/phase.h taxonomy: selection | echo |
///                              ready | voting | decision | protocol
///   voting_iteration  int      k of Lemma IV.8's Delta_r inside the
///                              voting loop; 0 outside it
///   messages bits correct_messages correct_bits equivocating_sends
///   max_message_bits max_correct_message_bits     uint64 round counters
///   injected_drops injected_duplicates injected_delays  uint64
///
/// Optional fields (same guards as byzrename.run/1 per_round entries):
///   injected_forgeries / injected_restarts  uint64  omitted when zero
///   accepted          object   {min,max}, Alg. 1/4 runs only
///   rejected_votes    int      cumulative up to this round
///   rank_spread / rank_spread_exact      double / string   Delta_r
///   adjacent_gap / adjacent_gap_exact    double / string
///   fast_max_discrepancy / fast_min_gap  int    Alg. 4 probes
///
/// ## byzrename.audit/1 — one complexity verdict per run
///
/// Produced by obs::ComplexityAuditor (--audit / --audit-out): the
/// paper's closed-form budgets evaluated against the finished run.
/// Deterministic (no wall clock enters any bound).
///
///   schema            string   "byzrename.audit/1"
///   run               object   algorithm n t faults adversary seed
///                              iterations round_budget
///   verdict           object   {complete, all_ok, bounds_checked,
///                              violations}
///   bounds            array    one object per evaluated bound:
///     .bound            string   stable id: steps | messages | bit_size |
///                                rank_contraction | fast_discrepancy |
///                                fast_gap
///     .formula          string   the paper's closed form, as text
///     .direction        string   "upper" (observed <= limit) or "lower"
///     .limit .observed  double
///     .ok               bool
///     .detail           string?  where the extreme was seen
///
/// ## byzrename.repro/1 — one self-contained failure reproduction
///
/// Written by the shrinker (tools/byzrename-shrink) and by the campaign
/// engine's quarantine path; replayed by `byzrename --repro`. One JSON
/// document (not JSONL):
///   schema            string   "byzrename.repro/1"
///   campaign cell rep string/int?  provenance of the original failure
///   scenario          object   the portable scenario:
///     .algorithm        string   CLI token ("op", "fast", ...)
///     .n .t .faults     int      system; faults == -1 means t
///     .adversary        string   registry name
///     .seed             uint64   exact run seed (NOT campaign-derived)
///     .iterations       int      -1 = algorithm default
///     .validate_votes   bool
///     .extra_rounds     int
///     .fault_plan       string   sim/fault.h spec grammar; "" = clean
///   expected          object   the verdict the scenario must reproduce:
///     .kind             string   none|violation|exception|timeout
///     .classes          string   comma-joined violated property classes
///     .detail .rounds .terminated .max_name
///
/// ## byzrename.repro-verdict/1 — outcome of one --repro replay
///
/// Deterministic: no wall clock, no thread count — two replays of one
/// bundle compare byte-for-byte regardless of --threads:
///   schema scenario expected   as in byzrename.repro/1
///   observed          object   verdict of this replay (same shape)
///   replays           int      how many times the scenario was run
///   consistent        bool     all replays produced identical verdicts
///   matches_expected  bool     observed == expected
///
/// ## byzrename.buildinfo/1 — identity of the serving binary
///
/// The body of GET /buildinfo on every serve surface (byzrename
/// --serve, byzrename-campaign --serve, byzrenamed). One JSON document:
///   schema            string   "byzrename.buildinfo/1"
///   version           string   project version
///   git_sha           string   HEAD at configure time; "unknown" outside git
///   build_type        string   CMAKE_BUILD_TYPE
///   compiler          string   compiler id + version
///   sanitizers        string   "address,undefined" | "thread" | "none"
///
/// ## byzrename.profile/1 — phase-attributed profile tree
///
/// Written by the obs/prof profiling plane: `byzrename --profile-out`
/// (kind "run"), `byzrename-campaign --profile-out` (kind "cell", one
/// line per cell), and served live as GET /profile next to /metrics.
/// One JSON document per line.
///
/// Shared envelope:
///   schema            string   "byzrename.profile/1"
///   kind              string   "run" | "cell"
///   hw_counters       bool     perf_event_open delivered at least one
///                              hardware counter; when false every
///                              volatile counter field reads 0
///   alloc_counting    bool     the binary interposed operator new
///                              (obs/prof/alloc_interpose.h); when false
///                              allocs/alloc_bytes read 0, not "no
///                              allocations"
///   nodes             array    the scope tree, parents before children
///
/// Per node, DETERMINISTIC fields (byte-identical across machines and
/// campaign --threads counts for a fixed scenario set):
///   path              string   semicolon-joined scope path from the
///                              top ("run;voting k=2")
///   name depth        string/int   leaf label and 0-based depth
///   calls             uint64   times the scope was entered
///   allocs alloc_bytes uint64  operator-new count/bytes attributed to
///                              the scope's thread while it was open
///   node_runs         uint64   (kind "cell" only) runs whose trees
///                              contained this path
///
/// VOLATILE fields — wall clocks and machine counters, never compared
/// byte-for-byte — are quarantined under one sub-object so consumers
/// can strip them mechanically (jq 'walk(if type == "object" then
/// del(.volatile) else . end)'):
///   volatile          object   {wall_seconds, cpu_seconds, cycles,
///                              instructions, llc_misses, branch_misses}
///
/// kind "run" adds: label (string, optional row id).
/// kind "cell" adds: campaign, cell (string ids), cell_index (int),
/// runs (int, trees merged into the aggregate); nodes are path-sorted
/// and counter fields are sums over those runs.
///
/// ## byzrename service API (docs/SERVICE.md) — the byzrenamed daemon
///
/// Request bodies are parsed with obs::parse_json (depth-capped,
/// duplicate keys rejected) because they arrive from clients, not from
/// this repo's own writers. Scenario and verdict objects reuse the
/// byzrename.repro/1 shapes verbatim — the daemon serializes them
/// through the same exp:: writers, which is what makes service verdicts
/// byte-comparable against `byzrename --verdict-out` output.
///
/// byzrename.session/1 — POST /v1/session request:
///   schema            string   "byzrename.session/1"
///   tenant            string   non-empty operator-chosen tenant label;
///                              also the `session` Prometheus label value
///
/// byzrename.session-ack/1 — its 200 response:
///   schema session             the session id equals the tenant label
///
/// byzrename.submit/1 — POST /v1/submit request:
///   schema            string   "byzrename.submit/1"
///   session           string   id from session-ack/1
///   instances         array    byzrename.repro/1 scenario objects
///
/// byzrename.submit-ack/1 — its 202 response:
///   schema session accepted    accepted == len(instances)
///   first_id          uint64   ids are first_id .. first_id+accepted-1,
///                              in submission order
///
/// byzrename.poll/1 — GET /v1/poll?session=S&cursor=N[&max=K][&wait_ms=T]:
///   schema session             as submitted
///   cursor            uint64   pass back to resume after these items
///   pending           int      submitted but not yet completed
///   draining          bool     daemon is shutting down
///   items             array    byzrename.verdict/1 objects, completion order
///
/// byzrename.verdict/1 — one finished instance:
///   schema            string   "byzrename.verdict/1"
///   id                uint64   omitted in `byzrename --verdict-out`
///   session           string   omitted in `byzrename --verdict-out`
///   status            string   done | cancelled (cancelled = drained
///                              from the queue before running; no verdict)
///   scenario          object   byzrename.repro/1 scenario shape
///   verdict           object?  byzrename.repro/1 expected shape (kind,
///                              classes, detail, rounds, terminated,
///                              max_name); absent when status=cancelled
///
/// byzrename.error/1 — body of every non-2xx service response:
///   schema error      string   error is human-readable; 429 responses
///                              additionally carry a Retry-After header
inline constexpr const char* kRunSchema = "byzrename.run/1";
inline constexpr const char* kSeriesSchema = "byzrename.series/1";
inline constexpr const char* kMetricsSchema = "byzrename.metrics/1";
inline constexpr const char* kAuditSchema = "byzrename.audit/1";
inline constexpr const char* kCampaignSchema = "byzrename.campaign/1";
inline constexpr const char* kCampaignSummarySchema = "byzrename.campaign-summary/1";
inline constexpr const char* kProgressSchema = "byzrename.progress/1";
inline constexpr const char* kReproSchema = "byzrename.repro/1";
inline constexpr const char* kReproVerdictSchema = "byzrename.repro-verdict/1";
inline constexpr const char* kBuildinfoSchema = "byzrename.buildinfo/1";
inline constexpr const char* kSessionSchema = "byzrename.session/1";
inline constexpr const char* kSessionAckSchema = "byzrename.session-ack/1";
inline constexpr const char* kSubmitSchema = "byzrename.submit/1";
inline constexpr const char* kSubmitAckSchema = "byzrename.submit-ack/1";
inline constexpr const char* kPollSchema = "byzrename.poll/1";
inline constexpr const char* kVerdictSchema = "byzrename.verdict/1";
inline constexpr const char* kErrorSchema = "byzrename.error/1";
inline constexpr const char* kProfileSchema = "byzrename.profile/1";

}  // namespace byzrename::obs

#endif  // BYZRENAME_OBS_SCHEMA_H
