#include "runtime/liquid_runtime.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <optional>
#include <span>
#include <thread>

#include "obs/flight_recorder.h"
#include "runtime/executor.h"
#include "runtime/fifo.h"
#include "util/error.h"

namespace lm::runtime {

using bc::Value;
using obs::JsonArgs;
using obs::TraceRecorder;
using obs::TraceSpan;

// ---------------------------------------------------------------------------
// Runtime graph representation (§4.1)
// ---------------------------------------------------------------------------

struct LiquidRuntime::RtNode {
  enum class Kind { kSource, kSink, kFilter, kDevice };
  Kind kind = Kind::kFilter;

  // Source / sink.
  Value array;
  int rate = 1;

  // Filter (bytecode-scheduled task).
  int method_index = -1;
  std::string task_id;
  bool relocated = false;
  int arity = 1;

  // Device node (after substitution).
  Artifact* artifact = nullptr;
  std::string label;
  /// Remote artifacts only: the local artifact this node swaps to when the
  /// transport dies mid-stream (graceful degradation, DESIGN.md §9).
  Artifact* fallback = nullptr;

  /// kAdaptive + enable_resubstitution: every calibrated candidate for this
  /// node (including the chosen one), so the drift check can swap mid-run.
  struct ResubAlternative {
    Artifact* artifact = nullptr;
    double us_per_elem = 0;  // calibration score
  };
  std::vector<ResubAlternative> resub_alts;
};

struct LiquidRuntime::RtGraph {
  std::vector<RtNode> nodes;
  bool substituted = false;
  bool started = false;
  bool executed = false;

  /// Process-unique run id, assigned when the graph reaches the executor.
  /// Stamped into every span the run emits (graph.run, exec, drains, fifo
  /// edges) so the attribution engine can separate concurrent graphs.
  uint64_t gid = 0;

  std::vector<std::shared_ptr<ValueFifo>> fifos;
  /// The graph's executor tasks (one per node). Owned here; the executor
  /// and the FIFO wakers hold raw pointers, valid until destruction —
  /// which wait_done() gates on every task having retired.
  std::vector<std::unique_ptr<ExecTask>> tasks;
  /// Co-owned worker pool: a graph handle that outlives the runtime can
  /// still drain (the pool dies with its last graph).
  std::shared_ptr<Executor> executor;
  std::mutex err_mu;
  std::exception_ptr error;

  /// Completion latch: counts unretired tasks. The executor calls
  /// task_retired() as its last touch of each task, so live == 0 means no
  /// worker will ever dereference this graph again.
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t live = 0;

  /// start() timestamp when a recorder was installed (for the graph.run
  /// span emitted at finish()); negative when untraced.
  double trace_start_us = -1;

  /// A graph may be start()ed and never finish()ed (the paper's start() is
  /// fire-and-forget); draining here keeps teardown safe when the last
  /// handle drops — outputs are complete once the handle is gone.
  ~RtGraph() {
    if (!tasks.empty() && !executed) {
      try {
        wait_done();
      } catch (...) {
        // A deterministic-mode deadlock verdict with nowhere to report:
        // unwedge whatever is left and wait for the latch directly.
        for (auto& f : fifos) f->close();
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait(lock, [&] { return live == 0; });
      }
    }
  }

  bool done() {
    std::lock_guard<std::mutex> lock(done_mu);
    return live == 0;
  }

  void task_retired() {
    // Notify *under* the lock: the waiter in wait_done() may destroy this
    // graph the moment it observes live == 0, and it cannot return from
    // wait() until this thread releases done_mu — which happens only after
    // the broadcast has finished touching done_cv.
    std::lock_guard<std::mutex> lock(done_mu);
    --live;
    done_cv.notify_all();
  }

  /// Blocks until every task retired. Deterministic executors have no
  /// worker threads, so this is also where their steps actually run.
  void wait_done() {
    if (executor && executor->deterministic()) {
      executor->drive([this] { return done(); });
    } else {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return live == 0; });
    }
  }

  void note_error(std::exception_ptr e) {
    // The fault lands in the flight recorder before anything else: even if
    // teardown hangs, the black box already holds the story.
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      obs::FlightRecorder::instance().record("fault", "task-error", ex.what());
    } catch (...) {
      obs::FlightRecorder::instance().record("fault", "task-error",
                                             "unknown exception");
    }
    std::lock_guard<std::mutex> lock(err_mu);
    if (!error) error = e;
    // Unblock everyone.
    for (auto& f : fifos) {
      f->close();
    }
  }
};

/// Cached instrument pointers: one registry lookup at construction, one
/// relaxed atomic RMW per increment afterwards.
struct LiquidRuntime::HotCounters {
  obs::MetricsRegistry::Counter* graphs_executed;
  obs::MetricsRegistry::Counter* elements_streamed;
  obs::MetricsRegistry::Counter* maps_accelerated;
  obs::MetricsRegistry::Counter* maps_interpreted;
  obs::MetricsRegistry::Counter* reduces_accelerated;
  obs::MetricsRegistry::Counter* reduces_interpreted;
  obs::MetricsRegistry::Counter* candidates_profiled;
  obs::MetricsRegistry::Counter* static_cost_seeds;
  obs::MetricsRegistry::Counter* placements_static;
  obs::MetricsRegistry::Counter* placements_measured;
  obs::MetricsRegistry::Counter* substitutions;
  obs::MetricsRegistry::Counter* resubstitutions;
  obs::MetricsRegistry::Counter* trace_dropped;
  obs::MetricsRegistry::Counter* flight_dumps;
  obs::MetricsRegistry::Counter* bytes_to_device;
  obs::MetricsRegistry::Counter* bytes_from_device;
  obs::MetricsRegistry::Counter* device_batches;
  obs::MetricsRegistry::MaxGauge* fifo_high_water;

  explicit HotCounters(obs::MetricsRegistry& m)
      : graphs_executed(&m.counter("runtime.graphs_executed")),
        elements_streamed(&m.counter("runtime.elements_streamed")),
        maps_accelerated(&m.counter("runtime.maps_accelerated")),
        maps_interpreted(&m.counter("runtime.maps_interpreted")),
        reduces_accelerated(&m.counter("runtime.reduces_accelerated")),
        reduces_interpreted(&m.counter("runtime.reduces_interpreted")),
        candidates_profiled(&m.counter("runtime.candidates_profiled")),
        static_cost_seeds(&m.counter("analysis.static_cost_seeds")),
        placements_static(&m.counter("analysis.placements_static")),
        placements_measured(&m.counter("analysis.placements_measured")),
        substitutions(&m.counter("runtime.substitutions")),
        resubstitutions(&m.counter("runtime.resubstitutions")),
        trace_dropped(&m.counter("trace.dropped_events")),
        flight_dumps(&m.counter("flight.dumps")),
        bytes_to_device(&m.counter("marshal.bytes_to_device")),
        bytes_from_device(&m.counter("marshal.bytes_from_device")),
        device_batches(&m.counter("marshal.device_batches")),
        fifo_high_water(&m.max_gauge("fifo.high_water")) {}
};

std::shared_ptr<LiquidRuntime::RtGraph> LiquidRuntime::graph_of(
    const Value& v) {
  auto p = std::static_pointer_cast<RtGraph>(v.as_opaque());
  LM_CHECK_MSG(p != nullptr, "value is not a task graph");
  return p;
}

namespace {
Value wrap(std::shared_ptr<LiquidRuntime::RtGraph> g);

/// The analyzer keys StaticCostModel rows by short device names ("cpu",
/// "gpu", "fpga"); artifacts record batches under cost_label() strings
/// ("cpu/bytecode", ...). This maps a runtime device to the analyzer key.
const char* static_device_key(DeviceKind d) {
  switch (d) {
    case DeviceKind::kCpu: return "cpu";
    case DeviceKind::kGpu: return "gpu";
    case DeviceKind::kFpga: return "fpga";
  }
  return "?";
}
}  // namespace

// ---------------------------------------------------------------------------
// Construction and interpreter wiring
// ---------------------------------------------------------------------------

LiquidRuntime::LiquidRuntime(CompiledProgram& program, RuntimeConfig config)
    : program_(program), config_(config), interp_(*program.bytecode) {
  LM_CHECK_MSG(program.bytecode != nullptr,
               "runtime needs a compiled program");
  hot_ = std::make_unique<HotCounters>(metrics_);
  interp_.set_task_host(this);
  interp_.set_accel_hooks(this);
  // Seed the cost models with the compiler's static estimates so a cold
  // registry can already rank candidates (source=static); the first real
  // batch flips each entry to source=measured.
  for (const analysis::StaticCostEstimate& e :
       program_.static_costs.estimates) {
    for (DeviceKind d : {DeviceKind::kCpu, DeviceKind::kGpu,
                         DeviceKind::kFpga}) {
      if (e.device != static_device_key(d)) continue;
      cost_models_.entry(e.task_id, to_string(d)).seed_static(e.us_per_elem);
      hot_->static_cost_seeds->add();
    }
  }
  if (config_.flight_ring_capacity != 0 &&
      config_.flight_ring_capacity !=
          obs::FlightRecorder::instance().ring_capacity()) {
    obs::FlightRecorder::instance().set_ring_capacity(
        config_.flight_ring_capacity);
  }
}

LiquidRuntime::~LiquidRuntime() = default;

void LiquidRuntime::add_remote_artifact(std::unique_ptr<Artifact> artifact) {
  LM_CHECK(artifact != nullptr);
  LM_CHECK_MSG(artifact->is_remote(),
               "add_remote_artifact is for net:: proxies only");
  remote_store_.add(std::move(artifact));
}

Artifact* LiquidRuntime::fallback_for(
    const Artifact* chosen, const std::vector<std::string>& task_ids) {
  if (!chosen || !chosen->is_remote() || task_ids.empty()) return nullptr;
  if (task_ids.size() == 1) {
    return program_.store.find(task_ids.front(), DeviceKind::kCpu);
  }
  // Fused segment: the store holds no monolithic CPU artifact under
  // "seg:..." ids, so chain the members' CPU artifacts (cached per segment
  // — two graphs may substitute the same pipeline).
  std::string seg = ArtifactStore::segment_id(task_ids);
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const auto& c : fallback_chains_) {
    if (c->manifest().task_id == seg) return c.get();
  }
  std::vector<Artifact*> stages;
  for (const std::string& id : task_ids) {
    Artifact* s = program_.store.find(id, DeviceKind::kCpu);
    if (!s) return nullptr;  // no net to fall into; run remote without one
    stages.push_back(s);
  }
  ArtifactManifest m;
  m.task_id = seg;
  m.device = DeviceKind::kCpu;
  m.param_types = stages.front()->manifest().param_types;
  m.return_type = stages.back()->manifest().return_type;
  m.arity = stages.front()->manifest().arity;
  m.artifact_text = "// cpu fallback chain for " + seg;
  fallback_chains_.push_back(
      std::make_unique<ChainArtifact>(std::move(m), std::move(stages)));
  return fallback_chains_.back().get();
}

Value LiquidRuntime::call(const std::string& qualified_name,
                          std::vector<Value> args) {
  return interp_.call(qualified_name, std::move(args));
}

void LiquidRuntime::sync_trace_drops() const {
  if (TraceRecorder* r = TraceRecorder::current()) {
    uint64_t cur = r->dropped_events();
    uint64_t seen = trace_drops_seen_.exchange(cur, std::memory_order_relaxed);
    if (cur > seen) hot_->trace_dropped->add(cur - seen);
  }
}

const RuntimeStats& LiquidRuntime::stats() const {
  sync_trace_drops();
  RuntimeStats s;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    s.substitutions = substitutions_;
    s.resubstitutions = resubstitutions_;
  }
  s.graphs_executed = hot_->graphs_executed->value();
  s.elements_streamed = hot_->elements_streamed->value();
  s.maps_accelerated = hot_->maps_accelerated->value();
  s.maps_interpreted = hot_->maps_interpreted->value();
  s.reduces_accelerated = hot_->reduces_accelerated->value();
  s.reduces_interpreted = hot_->reduces_interpreted->value();
  s.candidates_profiled = hot_->candidates_profiled->value();
  s.bytes_to_device = hot_->bytes_to_device->value();
  s.bytes_from_device = hot_->bytes_from_device->value();
  s.fifo_high_water = hot_->fifo_high_water->value();
  s.trace_dropped_events = hot_->trace_dropped->value();
  stats_snapshot_ = std::move(s);
  return stats_snapshot_;
}

void LiquidRuntime::reset_stats() {
  metrics_.reset();
  std::lock_guard<std::mutex> lock(subs_mu_);
  substitutions_.clear();
  resubstitutions_.clear();
}

obs::PerfReport LiquidRuntime::report() const {
  sync_trace_drops();
  obs::PerfReport rep;
  rep.policy = placement_name();
  for (const obs::CostModelRegistry::Row& row : cost_models_.rows()) {
    const obs::CostEntry& e = *row.entry;
    if (e.batches() == 0) continue;
    obs::PerfReport::TaskRow r;
    r.task = row.task;
    r.device = row.device;
    r.batches = e.batches();
    r.elements = e.elements();
    const obs::LatencyHistogram& h = e.batch_latency();
    r.p50_us = h.percentile_us(50);
    r.p90_us = h.percentile_us(90);
    r.p99_us = h.percentile_us(99);
    r.max_us = static_cast<double>(h.max_ns()) / 1e3;
    r.mean_us = h.mean_ns() / 1e3;
    r.ewma_us_per_elem = e.ewma_us_per_elem();
    r.static_us_per_elem = e.static_us_per_elem();
    r.cost_source = e.source();
    r.bytes_to_device = e.bytes_to_device();
    r.bytes_from_device = e.bytes_from_device();
    rep.tasks.push_back(std::move(r));
  }
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const SubstitutionRecord& s : substitutions_) {
      rep.substitutions.push_back(
          {s.task_ids, to_string(s.device), s.fused, s.source});
    }
    for (const ResubstitutionRecord& r : resubstitutions_) {
      rep.resubstitutions.push_back(
          {r.task_ids, to_string(r.from), to_string(r.to), r.live_us_per_elem,
           r.calibrated_us_per_elem, r.before_p50_us, r.before_p99_us,
           r.at_batch});
    }
  }
  // Remote proxies piggyback the server's device-execute latency on their
  // replies (net::ReplyTelemetry); fold those histograms in as their own
  // ":server" rows so wire time (the proxy's cost-model row above) and
  // device time stay separable per task.
  for (const Artifact* a : remote_store_.artifacts()) {
    const obs::LatencyHistogram* sh = a->server_histogram();
    if (!sh || sh->count() == 0) continue;
    obs::LatencyHistogram merged;
    merged.merge(*sh);
    obs::PerfReport::TaskRow r;
    r.task = a->manifest().task_id;
    r.device = a->cost_label() + ":server";
    r.batches = merged.count();
    r.p50_us = merged.percentile_us(50);
    r.p90_us = merged.percentile_us(90);
    r.p99_us = merged.percentile_us(99);
    r.max_us = static_cast<double>(merged.max_ns()) / 1e3;
    r.mean_us = merged.mean_ns() / 1e3;
    rep.tasks.push_back(std::move(r));
  }
  rep.metrics = metrics_.snapshot();
  rep.dropped_trace_events = hot_->trace_dropped->value();
  refresh_attributions();
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    rep.attributions = attributions_;
  }
  return rep;
}

std::shared_ptr<Executor> LiquidRuntime::ensure_executor() {
  std::lock_guard<std::mutex> lock(exec_mu_);
  if (!executor_) {
    Executor::Options o;
    o.workers = config_.worker_threads;
    o.seed = config_.scheduler_seed;
    o.metrics = &metrics_;
    executor_ = std::make_shared<Executor>(o);
  }
  return executor_;
}

void LiquidRuntime::collect_telemetry(
    std::vector<obs::GaugeSample>& out) const {
  sync_trace_drops();
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    if (executor_) executor_->collect_telemetry(out);
  }
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    size_t gi = 0;
    for (const auto& w : active_graphs_) {
      std::shared_ptr<RtGraph> g = w.lock();
      if (!g) continue;
      for (size_t qi = 0; qi < g->fifos.size(); ++qi) {
        std::vector<std::pair<std::string, std::string>> labels = {
            {"graph", std::to_string(gi)}, {"queue", std::to_string(qi)}};
        out.emplace_back("fifo.depth",
                         static_cast<double>(g->fifos[qi]->size()), labels);
        out.emplace_back("fifo.capacity",
                         static_cast<double>(g->fifos[qi]->capacity()),
                         std::move(labels));
      }
      ++gi;
    }
  }
  for (const obs::CostModelRegistry::Row& row : cost_models_.rows()) {
    std::vector<std::pair<std::string, std::string>> labels = {
        {"task", row.task}, {"device", row.device}};
    const obs::CostEntry& e = *row.entry;
    out.emplace_back("task.in_flight", static_cast<double>(e.in_flight()),
                     labels);
    out.emplace_back("task.batches", static_cast<double>(e.batches()),
                     labels);
    out.emplace_back("task.elements", static_cast<double>(e.elements()),
                     labels);
    out.emplace_back("task.ewma_us_per_elem", e.ewma_us_per_elem(),
                     std::move(labels));
  }
  // Attribution gauges. attr.analyzed_graphs is exported unconditionally
  // (0 before any analysis) so lmtop --check can assert the series exists
  // even when the scrape races the first graph; the per-category and wall
  // gauges describe the most recently analyzed graph. The scrape is a
  // consumer: graphs queued since the last one are analyzed here, on the
  // exporter thread, not on the workload's.
  refresh_attributions();
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    out.emplace_back("attr.analyzed_graphs",
                     static_cast<double>(attributions_.size()),
                     std::vector<std::pair<std::string, std::string>>{});
    if (!attributions_.empty()) {
      const obs::Attribution& a = attributions_.back();
      out.emplace_back("attr.wall_us", a.wall_us,
                       std::vector<std::pair<std::string, std::string>>{});
      out.emplace_back("attr.coverage", a.coverage(),
                       std::vector<std::pair<std::string, std::string>>{});
      for (const obs::Attribution::Category& c : a.categories) {
        out.emplace_back("attr.category_us", c.us,
                         std::vector<std::pair<std::string, std::string>>{
                             {"category", c.name}});
      }
    }
  }
}

void LiquidRuntime::refresh_attributions() const {
  std::lock_guard<std::mutex> lock(attr_mu_);
  if (attr_pending_.empty()) return;
  obs::TraceRecorder* rec = obs::TraceRecorder::current();
  if (rec == nullptr) return;  // recorder gone; keep the queue for later
  std::vector<uint64_t> pending = std::move(attr_pending_);
  attr_pending_.clear();
  std::vector<obs::Attribution> atts = obs::attribute_trace(rec->events());
  // One attempt per gid: a gid the trace cannot resolve (events dropped)
  // is abandoned rather than retried — the events will not come back.
  for (uint64_t gid : pending) {
    for (obs::Attribution& a : atts) {
      if (a.gid != gid || a.wall_us <= 0) continue;
      attributions_.push_back(std::move(a));
      break;
    }
  }
}

std::vector<obs::Attribution> LiquidRuntime::attributions() const {
  refresh_attributions();
  std::lock_guard<std::mutex> lock(attr_mu_);
  return attributions_;
}

void LiquidRuntime::dump_flight(const std::string& reason) const {
  if (config_.flight_dump_path.empty()) return;
  if (obs::FlightRecorder::instance().dump_to_file(config_.flight_dump_path,
                                                   reason)) {
    hot_->flight_dumps->add();
  }
}

const char* LiquidRuntime::placement_name() const {
  switch (config_.placement) {
    case Placement::kAuto: return "auto";
    case Placement::kCpuOnly: return "cpu";
    case Placement::kGpuOnly: return "gpu";
    case Placement::kFpgaOnly: return "fpga";
    case Placement::kAdaptive: return "adaptive";
  }
  return "?";
}

void LiquidRuntime::record_substitution(SubstitutionRecord rec,
                                        std::string extra_args) {
  hot_->substitutions->add();
  if (rec.source == "static") {
    hot_->placements_static->add();
  } else if (rec.source == "measured") {
    hot_->placements_measured->add();
  }
  obs::FlightRecorder::instance().record("decision", "substitution",
                                         rec.task_ids);
  if (TraceRecorder* r = TraceRecorder::current()) {
    JsonArgs args;
    args.add("tasks", rec.task_ids)
        .add("device", to_string(rec.device))
        .add("fused", rec.fused)
        .add("policy", placement_name());
    if (rec.remote) {
      args.add("remote", true).add("endpoint", rec.endpoint);
    }
    if (config_.placement == Placement::kAdaptive) {
      args.add("calibrated", rec.calibrated);
      if (rec.score_us_per_elem >= 0) {
        args.add("score_us_per_elem", rec.score_us_per_elem);
      }
    }
    if (!rec.source.empty()) args.add("source", rec.source);
    std::string body = std::move(args).str();
    if (!extra_args.empty()) {
      body += ',';
      body += extra_args;
    }
    r->instant("decision", "substitution", std::move(body));
  }
  std::lock_guard<std::mutex> lock(subs_mu_);
  substitutions_.push_back(std::move(rec));
}

void LiquidRuntime::record_resubstitution(ResubstitutionRecord rec) {
  hot_->resubstitutions->add();
  obs::FlightRecorder::instance().record(
      "decision", "resubstitution", rec.task_ids, /*dur_us=*/-1.0,
      rec.at_batch, static_cast<uint64_t>(rec.live_us_per_elem * 1000.0));
  if (TraceRecorder* r = TraceRecorder::current()) {
    r->instant("decision", "resubstitution",
               JsonArgs()
                   .add("tasks", rec.task_ids)
                   .add("reason", rec.reason)
                   .add("from", to_string(rec.from))
                   .add("to", to_string(rec.to))
                   .add("live_us_per_elem", rec.live_us_per_elem)
                   .add("calibrated_us_per_elem", rec.calibrated_us_per_elem)
                   .add("before_p50_us", rec.before_p50_us)
                   .add("before_p99_us", rec.before_p99_us)
                   .add("at_batch", rec.at_batch)
                   .str());
  }
  // The swap is a "something changed mid-run" moment worth a black-box
  // snapshot: it captures the drain history that triggered the decision.
  dump_flight("resubstitution: " + rec.task_ids);
  std::lock_guard<std::mutex> lock(subs_mu_);
  resubstitutions_.push_back(std::move(rec));
}

// ---------------------------------------------------------------------------
// TaskGraphHost: graph construction (§4.1)
// ---------------------------------------------------------------------------

namespace {
Value wrap(std::shared_ptr<LiquidRuntime::RtGraph> g) {
  return Value::opaque(std::static_pointer_cast<void>(std::move(g)));
}
}  // namespace

Value LiquidRuntime::make_source(Value array, int rate) {
  auto g = std::make_shared<RtGraph>();
  RtNode n;
  n.kind = RtNode::Kind::kSource;
  n.array = std::move(array);
  n.rate = rate;
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value LiquidRuntime::make_sink(Value array) {
  auto g = std::make_shared<RtGraph>();
  RtNode n;
  n.kind = RtNode::Kind::kSink;
  n.array = std::move(array);
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value LiquidRuntime::make_task(const std::string& task_id, int method_index,
                               bool relocated) {
  auto g = std::make_shared<RtGraph>();
  RtNode n;
  n.kind = RtNode::Kind::kFilter;
  n.method_index = method_index;
  n.task_id = task_id;
  n.relocated = relocated;
  n.arity = program_.bytecode->methods[static_cast<size_t>(method_index)]
                .num_params;
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value LiquidRuntime::connect(Value lhs, Value rhs) {
  auto a = graph_of(lhs);
  auto b = graph_of(rhs);
  auto g = std::make_shared<RtGraph>();
  g->nodes = a->nodes;
  g->nodes.insert(g->nodes.end(), b->nodes.begin(), b->nodes.end());
  return wrap(std::move(g));
}

// ---------------------------------------------------------------------------
// Task substitution (§4.2, §7): one rewrite, fed by a per-placement scorer
// ---------------------------------------------------------------------------

namespace {

/// A scorer's answer for one candidate. An unscored candidate carries no
/// cost and never wins on one.
struct Score {
  bool scored = false;
  double cost = 0;          // what picks and fused-vs-chain compare
  double us_per_elem = -1;  // the decision log's score_us_per_elem
};

/// The only question substitution asks a placement: "what does this
/// candidate cost, if you know?" `in` is the calibration stream feeding the
/// candidate (empty unless calibrating); a measuring scorer leaves the
/// candidate's output in `*out`, so the next chain member is scored on
/// what this one yields.
struct Scorer {
  /// Decision-log source of a scored pick: "measured" or "static".
  const char* source;
  /// Trace field of a candidate's cost; the two plans' totals are rendered
  /// as "fused_<field>" and "chain_<field>".
  const char* cost_field;
  std::function<Score(Artifact*, const std::vector<Value>& in,
                      std::vector<Value>* out)>
      score;
};

/// One substitution unit (a single filter or a fused segment): its
/// candidates in listing order, their scores, and the pick — the cheapest
/// scored candidate, earliest on ties, else the first listed.
struct Unit {
  std::vector<Artifact*> cands;
  std::vector<Score> scores;  // parallel to cands; empty without a scorer
  size_t pick = 0;
  std::vector<Value> out;  // the pick's calibration output

  Artifact* artifact() const { return cands.empty() ? nullptr : cands[pick]; }
  bool scored() const { return !scores.empty() && scores[pick].scored; }
  double cost() const { return scores[pick].cost; }
};

}  // namespace

std::vector<Artifact*> LiquidRuntime::candidates_for(
    const std::string& id) const {
  static constexpr DeviceKind kAccels[] = {DeviceKind::kGpu,
                                           DeviceKind::kFpga};
  std::span<const DeviceKind> accels;
  switch (config_.placement) {
    case Placement::kAuto:
    case Placement::kAdaptive: accels = kAccels; break;
    case Placement::kGpuOnly: accels = std::span(kAccels).first(1); break;
    case Placement::kFpgaOnly: accels = std::span(kAccels).subspan(1); break;
    case Placement::kCpuOnly: break;
  }
  const bool adaptive = config_.placement == Placement::kAdaptive;
  std::vector<Artifact*> out;
  for (DeviceKind d : accels) {
    Artifact* local = program_.store.find(id, d);
    Artifact* remote = remote_store_.find(id, d);
    if (!adaptive) {
      // The preference policies take one artifact per device.
      Artifact* a = remote && (config_.prefer_remote || !local) ? remote : local;
      if (a) out.push_back(a);
      continue;
    }
    // Local before remote, so equal measurements avoid the network hop.
    // Remotes race on measured time, which charges the round trip and the
    // wire; the static seeds model this process's executors only.
    if (local) out.push_back(local);
    if (remote && config_.enable_calibration) out.push_back(remote);
  }
  // Servers never list bytecode: across the wire it is strictly worse.
  if (Artifact* cpu = program_.store.find(id, DeviceKind::kCpu)) {
    out.push_back(cpu);
  }
  return out;
}

void LiquidRuntime::substitute(RtGraph& g) {
  if (g.substituted) return;
  g.substituted = true;
  TraceSpan span("runtime", "substitute");
  const bool calibrating = config_.placement == Placement::kAdaptive &&
                           config_.enable_calibration;
  const bool tracing = TraceRecorder::current() != nullptr;

  // Calibration prefix: the first few elements of the *actual* stream, so
  // profiling sees representative data (runtime introspection, §7).
  std::vector<Value> stream;
  if (calibrating && !g.nodes.empty() &&
      g.nodes.front().kind == RtNode::Kind::kSource) {
    const bc::ArrayRef& src = g.nodes.front().array.as_array();
    size_t k_cal = std::min(config_.calibration_elements, src->size());
    stream.reserve(k_cal);
    for (size_t i = 0; i < k_cal; ++i) stream.push_back(bc::array_get(*src, i));
  }

  auto measure = [this](Artifact* a, const std::vector<Value>& in,
                        std::vector<Value>* out) -> Score {
    size_t arity = static_cast<size_t>(a->manifest().arity);
    size_t usable = (in.size() / arity) * arity;
    // Regression guard: a zero time here used to make an un-runnable
    // candidate look infinitely fast and beat every real measurement.
    if (usable == 0) return {};
    std::span<const Value> batch(in.data(), usable);
    hot_->candidates_profiled->add();
    std::vector<Value> result;
    double best = 1e300;
    try {
      // Warm once, then time the better of two runs.
      result = a->process(batch);
      for (int rep = 0; rep < 2; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        result = a->process(batch);
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
    } catch (const TransportError&) {
      // A remote candidate whose endpoint died during calibration simply
      // drops out of the race; the run proceeds with whoever answered.
      return {};
    }
    *out = std::move(result);
    return {true, best * 1e6, best * 1e6 / static_cast<double>(usable)};
  };
  // Cold start: the compiler's static cost estimates (also seeded into the
  // cost models at construction) rank the candidates without a prefix run.
  auto seed = [this](Artifact* a, const std::vector<Value>&,
                     std::vector<Value>*) -> Score {
    const analysis::StaticCostEstimate* e = program_.static_costs.find(
        a->manifest().task_id, static_device_key(a->manifest().device));
    if (!e || e->us_per_elem < 0) return {};
    return {true, e->us_per_elem, e->us_per_elem};
  };
  std::optional<Scorer> scorer;
  if (calibrating) {
    scorer = Scorer{"measured", "time_us", measure};
  } else if (config_.placement == Placement::kAdaptive) {
    scorer = Scorer{"static", "static_us_per_elem", seed};
  }

  auto score_unit = [&](const std::string& id, const std::vector<Value>& in) {
    Unit u;
    u.cands = candidates_for(id);
    if (!scorer) return u;
    u.scores.reserve(u.cands.size());
    for (size_t c = 0; c < u.cands.size(); ++c) {
      std::vector<Value> out;
      Score s = scorer->score(u.cands[c], in, &out);
      if (s.scored && !(u.scored() && u.cost() <= s.cost)) {
        u.pick = c;
        u.out = std::move(out);
      }
      u.scores.push_back(s);
    }
    return u;
  };

  std::vector<RtNode> out;
  for (size_t i = 0; i < g.nodes.size();) {
    const RtNode& n = g.nodes[i];
    if (n.kind != RtNode::Kind::kFilter || !n.relocated) {
      // Advance the calibration stream through the untouched filter.
      if (n.kind == RtNode::Kind::kFilter && !stream.empty()) {
        size_t arity = static_cast<size_t>(n.arity);
        std::vector<Value> next;
        std::vector<Value> args(arity);
        for (size_t e = 0; e + arity <= stream.size(); e += arity) {
          for (size_t k = 0; k < arity; ++k) args[k] = stream[e + k];
          next.push_back(interp_.call(n.method_index, args));
        }
        stream = std::move(next);
      }
      out.push_back(n);
      ++i;
      continue;
    }

    // Maximal run of consecutive relocated filters [i, j).
    size_t j = i;
    std::vector<std::string> ids;
    while (j < g.nodes.size() && g.nodes[j].kind == RtNode::Kind::kFilter &&
           g.nodes[j].relocated) {
      ids.push_back(g.nodes[j].task_id);
      ++j;
    }

    // Plan A: the whole run as one fused segment.
    Unit fused;
    if (ids.size() > 1 && config_.allow_fusion) {
      fused = score_unit(ArtifactStore::segment_id(ids), stream);
    }
    // Plan B: each filter on its own pick, the calibration stream threaded
    // through every scored pick. Without a scorer the chain is never fully
    // scored, so it matters only when no fused candidate exists.
    std::vector<Unit> chain;
    std::vector<Value> chain_stream = stream;
    bool chain_full = scorer.has_value();
    double chain_cost = 0;
    if (scorer || fused.cands.empty()) {
      for (const std::string& id : ids) {
        Unit u = score_unit(id, chain_stream);
        if (u.scored()) {
          chain_cost += u.cost();
          chain_stream = std::move(u.out);
        } else {
          chain_full = false;
        }
        chain.push_back(std::move(u));
      }
    }

    // A fully scored plan beats a partly scored one; two fully scored
    // plans compare by cost, fused winning ties; when neither is fully
    // scored, the larger substitution wins (§4.2 "prefer larger").
    const bool fuse =
        !fused.cands.empty() &&
        (fused.scored() ? !chain_full || fused.cost() <= chain_cost
                        : !chain_full);

    // The decision event's scoreboard: both plans' totals and every
    // candidate with its cost, or "eligible":false when unscored. A fused
    // decision lists the losing per-filter plan too, so the trace explains
    // *why* fusion won.
    auto decision_args = [&](const Unit* member) -> std::string {
      if (!tracing || !scorer) return {};
      std::string list = "[";
      auto add_entries = [&](const Unit& u) {
        for (size_t c = 0; c < u.cands.size(); ++c) {
          const Artifact* a = u.cands[c];
          JsonArgs e;
          e.add("tasks", a->manifest().task_id)
              .add("device", to_string(a->manifest().device));
          if (a->is_remote()) e.add("endpoint", a->location());
          if (u.scores[c].scored) {
            e.add(scorer->cost_field, u.scores[c].cost);
          } else {
            e.add("eligible", false);
          }
          if (list.size() > 1) list += ',';
          list += '{' + std::move(e).str() + '}';
        }
      };
      if (member) {
        add_entries(*member);
      } else {
        add_entries(fused);
        for (const Unit& u : chain) add_entries(u);
      }
      list += ']';
      const std::string field = scorer->cost_field;
      JsonArgs args;
      if (fused.scored()) args.add(("fused_" + field).c_str(), fused.cost());
      if (chain_full) args.add(("chain_" + field).c_str(), chain_cost);
      return std::move(args.add_raw("candidates", list)).str();
    };

    // Emits one unit: a member of the chain (`filter` is its node) or the
    // fused segment (`filter` is null).
    auto emit = [&](const Unit& u, const RtNode* filter, std::string extra) {
      Artifact* a = u.artifact();
      // A node can only re-substitute toward a *measured* alternative, so
      // it needs at least one calibrated loser besides its own pick.
      std::vector<RtNode::ResubAlternative> alts;
      if (calibrating && config_.enable_resubstitution) {
        for (size_t c = 0; c < u.cands.size(); ++c) {
          if (u.scores[c].scored) {
            alts.push_back({u.cands[c], u.scores[c].us_per_elem});
          }
        }
        if (alts.size() < 2) alts.clear();
      }
      // A local CPU pick stays an interpreter filter, unless it may later
      // swap devices: then it must drain in device batches.
      if (filter && (!a || (a->manifest().device == DeviceKind::kCpu &&
                            !a->is_remote() && alts.empty()))) {
        out.push_back(*filter);
      } else {
        RtNode dev;
        dev.kind = RtNode::Kind::kDevice;
        dev.artifact = a;
        dev.arity = a->manifest().arity;
        dev.label = a->manifest().task_id;
        dev.fallback = filter ? fallback_for(a, {filter->task_id})
                              : fallback_for(a, ids);
        dev.resub_alts = std::move(alts);
        out.push_back(std::move(dev));
      }
      SubstitutionRecord rec;
      if (filter) {
        rec.task_ids = filter->task_id;
      } else {
        for (size_t k = 0; k < ids.size(); ++k) {
          if (k) rec.task_ids += "+";
          rec.task_ids += ids[k];
        }
      }
      rec.device = a ? a->manifest().device : DeviceKind::kCpu;
      rec.fused = filter == nullptr;
      if (u.scored()) {
        rec.score_us_per_elem = u.scores[u.pick].us_per_elem;
        rec.calibrated = calibrating;
        rec.source = scorer->source;
      }
      rec.remote = a && a->is_remote();
      if (rec.remote) rec.endpoint = a->location();
      record_substitution(std::move(rec), std::move(extra));
    };

    if (fuse) {
      emit(fused, nullptr, decision_args(nullptr));
      // An unscored fused pick leaves the calibration stream where it is.
      if (fused.scored()) stream = std::move(fused.out);
    } else {
      for (size_t k = 0; k < chain.size(); ++k) {
        emit(chain[k], &g.nodes[i + k], decision_args(&chain[k]));
      }
      stream = std::move(chain_stream);
    }
    i = j;
  }
  g.nodes = std::move(out);
}

// ---------------------------------------------------------------------------
// Execution (§4.1: thread per task, FIFO connections)
// ---------------------------------------------------------------------------

namespace {

void validate_shape(const std::vector<LiquidRuntime::RtNode>& nodes) {
  using Kind = LiquidRuntime::RtNode::Kind;
  if (nodes.size() < 2 || nodes.front().kind != Kind::kSource ||
      nodes.back().kind != Kind::kSink) {
    throw RuntimeError(
        "task graph must be source => filters... => sink to execute");
  }
  for (size_t i = 1; i + 1 < nodes.size(); ++i) {
    if (nodes[i].kind != Kind::kFilter && nodes[i].kind != Kind::kDevice) {
      throw RuntimeError("interior task-graph nodes must be filters");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// DeviceRun: per-device-node batch driver (§7 online profiling)
// ---------------------------------------------------------------------------

/// Drives one device node's drains: times every batch into the node's
/// (task, device) cost model, accounts marshaling traffic, feeds the flight
/// recorder, and — when the node carries calibrated alternatives — runs the
/// periodic drift check that may swap the artifact mid-run. Used by both
/// the threaded and the inline scheduler so they profile identically.
class LiquidRuntime::DeviceRun {
 public:
  DeviceRun(LiquidRuntime& rt, RtNode& node, TraceRecorder* rec)
      : rt_(rt), node_(node), rec_(rec) {
    bind(node.artifact);
  }

  size_t arity() const { return static_cast<size_t>(cur_->manifest().arity); }

  /// Identity stamped into drain spans so the attribution engine can bind
  /// them to the owning graph's task lane (executor mode only; inline runs
  /// keep gid 0 and are skipped by the engine).
  void set_trace_ids(uint64_t gid, int node) {
    trace_gid_ = gid;
    trace_node_ = node;
  }

  std::vector<Value> process(std::span<const Value> batch) {
    const BatchStart start = batch_start();
    // In-flight bracket on the entry bound at batch start: invoke() may
    // rebind cost_ mid-batch (remote fallback), and the end must land on
    // the same entry the begin did.
    struct InFlight {
      obs::CostEntry* e;
      explicit InFlight(obs::CostEntry* entry) : e(entry) {
        e->begin_batch();
      }
      ~InFlight() { e->end_batch(); }
    };
    std::vector<Value> out;
    {
      InFlight guard(cost_);
      out = invoke(batch);
    }
    finish_batch(*cur_, *cost_, start, batch.size());
    return out;
  }

  uint64_t batches() const { return batches_; }
  uint64_t elements() const { return elements_; }
  uint64_t bytes_to_device() const { return bytes_to_; }
  uint64_t bytes_from_device() const { return bytes_from_; }

  // -- asynchronous batches (remote artifacts over the poll loop) --

  bool can_issue_async() const { return cur_->supports_async(); }
  bool async_in_flight() const { return async_ != nullptr; }
  bool async_ready() const {
    return async_ && async_->ready->load(std::memory_order_acquire);
  }

  /// Starts one batch without blocking; `on_done` fires (from an arbitrary
  /// thread) when the reply or failure arrives, after which collect_async()
  /// resolves it. At most one batch in flight per node.
  void issue_async(std::vector<Value> batch, std::function<void()> on_done) {
    LM_CHECK_MSG(!async_, "device node already has a batch in flight");
    auto a = std::make_unique<Async>();
    a->inputs = std::move(batch);
    a->artifact = cur_;
    a->cost = cost_;
    a->start = batch_start();
    a->ready = std::make_shared<std::atomic<bool>>(false);
    cost_->begin_batch();
    auto ready = a->ready;
    std::function<void()> cb = [ready, done = std::move(on_done)] {
      ready->store(true, std::memory_order_release);
      done();
    };
    try {
      a->op = cur_->process_async(
          std::span<const Value>(a->inputs.data(), a->inputs.size()),
          std::move(cb));
    } catch (...) {
      cost_->end_batch();
      throw;
    }
    async_ = std::move(a);
  }

  /// Resolves a completed async batch on the calling worker thread: decodes
  /// the reply and runs the same accounting as process(). On a transport
  /// failure it swaps to the node's local fallback and replays the batch
  /// synchronously — artifacts are pure functions of their input batch, so
  /// at-least-once is safe (mirrors invoke()'s degradation path).
  std::vector<Value> collect_async() {
    std::unique_ptr<Async> a = std::move(async_);
    std::vector<Value> out;
    try {
      out = a->op->take_results();
    } catch (const TransportError& e) {
      a->cost->end_batch();
      if (node_.fallback == nullptr) throw;
      fall_back(e, *a->artifact, *a->cost);
      return process(
          std::span<const Value>(a->inputs.data(), a->inputs.size()));
    } catch (...) {
      a->cost->end_batch();
      throw;
    }
    a->cost->end_batch();
    finish_batch(*a->artifact, *a->cost, a->start, a->inputs.size());
    return out;
  }

 private:
  /// What a batch's accounting needs from its start: the transfer counters
  /// it diffs against and its start times.
  struct BatchStart {
    const TransferStats* ts = nullptr;
    uint64_t to0 = 0, from0 = 0;
    double t0_us = 0;
    std::chrono::steady_clock::time_point t0;
  };

  BatchStart batch_start() const {
    const TransferStats& ts = cur_->transfer_stats();
    return {&ts, ts.bytes_to_device, ts.bytes_from_device,
            rec_ ? rec_->now_us() : 0, std::chrono::steady_clock::now()};
  }

  /// Accounts one resolved batch of `n` elements to the artifact and cost
  /// entry that served it: the drain span, the cost model, the marshaling
  /// counters, the running totals and the flight record; then runs the
  /// drift check.
  void finish_batch(const Artifact& a, obs::CostEntry& cost,
                    const BatchStart& start, size_t n) {
    double dt = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start.t0)
                    .count();
    if (rec_) {
      rec_->complete("task", "drain:" + a.manifest().task_id, start.t0_us,
                     dt * 1e6,
                     JsonArgs()
                         .add("elements", static_cast<uint64_t>(n))
                         .add("gid", trace_gid_)
                         .add("node", trace_node_)
                         .add("device", a.cost_label())
                         .str());
    }
    uint64_t dto = start.ts->bytes_to_device - start.to0;
    uint64_t dfrom = start.ts->bytes_from_device - start.from0;
    cost.record_batch(dt, n, rt_.config_.cost_ewma_alpha);
    cost.record_transfer(dto, dfrom);
    rt_.hot_->device_batches->add();
    rt_.hot_->bytes_to_device->add(dto);
    rt_.hot_->bytes_from_device->add(dfrom);
    ++batches_;
    elements_ += n;
    bytes_to_ += dto;
    bytes_from_ += dfrom;
    obs::FlightRecorder::instance().record("task", "drain",
                                           a.manifest().task_id, dt * 1e6, n,
                                           dto + dfrom);
    maybe_resubstitute();
  }

  /// A remote artifact's transport died: logs the fault, records the swap
  /// (reason "remote-failure") against the artifact and cost entry that
  /// failed, and binds the node's local fallback for good — no drift swaps
  /// after this.
  void fall_back(const TransportError& e, const Artifact& failed,
                 const obs::CostEntry& cost) {
    obs::FlightRecorder::instance().record("fault", "remote-transport",
                                           e.what());
    ResubstitutionRecord rec;
    rec.task_ids = failed.manifest().task_id;
    rec.from = failed.manifest().device;
    rec.to = node_.fallback->manifest().device;
    rec.live_us_per_elem = cost.ewma_us_per_elem();
    rec.before_p50_us = cost.batch_latency().percentile_us(50);
    rec.before_p99_us = cost.batch_latency().percentile_us(99);
    rec.at_batch = batches_;
    rec.reason = "remote-failure";
    rt_.metrics_.counter("net.remote_fallbacks").add();
    bind(node_.fallback);
    swapped_ = true;
    rt_.record_resubstitution(std::move(rec));
  }

  void bind(Artifact* a) {
    cur_ = a;
    // cost_label() keeps a remote GPU's history separate from the local
    // GPU's: the remote entry absorbs round-trip and wire time, so scores
    // compared across the two are wire-cost-aware by construction.
    cost_ = &rt_.cost_models_.entry(a->manifest().task_id, a->cost_label());
  }

  /// cur_->process with graceful degradation: when a *remote* artifact's
  /// transport dies (endpoint down, timeout, connection killed mid-batch),
  /// swap to the node's local fallback and replay the same batch — artifacts
  /// are pure functions of their input batch, so at-least-once is safe. The
  /// failed attempt's time is charged to the fallback's first batch; an
  /// acceptable smear given the swap happens at most once per node.
  std::vector<Value> invoke(std::span<const Value> batch) {
    if (!cur_->is_remote() || node_.fallback == nullptr) {
      return cur_->process(batch);
    }
    try {
      return cur_->process(batch);
    } catch (const TransportError& e) {
      fall_back(e, *cur_, *cost_);
      return cur_->process(batch);
    }
  }

  /// Every `resubstitution_interval` batches: if the live per-element cost
  /// has drifted past the best calibrated loser by more than the configured
  /// margin, swap artifacts for the remainder of the stream. One swap per
  /// node per run keeps the policy stable (no flapping).
  void maybe_resubstitute() {
    if (swapped_ || node_.resub_alts.size() < 2) return;
    if (++since_check_ < rt_.config_.resubstitution_interval) return;
    since_check_ = 0;
    double live = cost_->ewma_us_per_elem();
    if (live <= 0) return;
    const RtNode::ResubAlternative* target = nullptr;
    for (const auto& alt : node_.resub_alts) {
      if (alt.artifact == cur_) continue;
      if (!target || alt.us_per_elem < target->us_per_elem) target = &alt;
    }
    if (!target) return;
    if (live <=
        target->us_per_elem * (1.0 + rt_.config_.resubstitution_drift)) {
      return;
    }
    ResubstitutionRecord rec;
    rec.task_ids = cur_->manifest().task_id;
    rec.from = cur_->manifest().device;
    rec.to = target->artifact->manifest().device;
    rec.live_us_per_elem = live;
    rec.calibrated_us_per_elem = target->us_per_elem;
    rec.before_p50_us = cost_->batch_latency().percentile_us(50);
    rec.before_p99_us = cost_->batch_latency().percentile_us(99);
    rec.at_batch = batches_;
    bind(target->artifact);
    swapped_ = true;
    rt_.record_resubstitution(std::move(rec));
  }

  /// State of the (single) in-flight asynchronous batch. Everything the
  /// issue side measured is pinned here so collect_async() charges the
  /// batch to the entry and artifact that actually served it, even if the
  /// node rebinds in between.
  struct Async {
    std::unique_ptr<AsyncBatch> op;
    std::shared_ptr<std::atomic<bool>> ready;
    std::vector<Value> inputs;  // kept for fallback replay
    Artifact* artifact = nullptr;
    obs::CostEntry* cost = nullptr;
    BatchStart start;
  };

  LiquidRuntime& rt_;
  RtNode& node_;
  TraceRecorder* rec_;
  Artifact* cur_ = nullptr;
  obs::CostEntry* cost_ = nullptr;
  std::unique_ptr<Async> async_;
  uint64_t batches_ = 0, elements_ = 0, bytes_to_ = 0, bytes_from_ = 0;
  uint64_t since_check_ = 0;
  bool swapped_ = false;
  uint64_t trace_gid_ = 0;
  int trace_node_ = -1;
};

void LiquidRuntime::start(Value graph) {
  auto g = graph_of(graph);
  if (g->started || g->executed) return;
  substitute(*g);
  validate_shape(g->nodes);
  if (!config_.use_threads) {
    // Inline mode has no asynchrony; run to completion now.
    execute(*g);
    return;
  }
  if (TraceRecorder* rec = TraceRecorder::current()) {
    g->trace_start_us = rec->now_us();
  }
  run_executor(*g);  // submits tasks; finish() waits on the latch
  {
    // Expose the running graph to the telemetry plane (live FIFO depths).
    // Prune dead entries here rather than on scrape so the exporter path
    // stays read-mostly.
    std::lock_guard<std::mutex> lock(graphs_mu_);
    std::erase_if(active_graphs_,
                  [](const std::weak_ptr<RtGraph>& w) { return w.expired(); });
    active_graphs_.push_back(g);
  }
  g->started = true;
}

void LiquidRuntime::finish(Value graph) {
  auto g = graph_of(graph);
  if (g->executed) return;
  if (!g->started) {
    substitute(*g);
    validate_shape(g->nodes);
    execute(*g);
    return;
  }
  // Started earlier: join.
  finalize_graph(*g);
}

void LiquidRuntime::execute(RtGraph& g) {
  if (config_.use_threads) {
    if (TraceRecorder* rec = TraceRecorder::current()) {
      g.trace_start_us = rec->now_us();
    }
    run_executor(g);
    finalize_graph(g);
  } else {
    TraceSpan span("runtime", "graph.run");
    try {
      run_inline(g);
    } catch (...) {
      g.note_error(std::current_exception());
    }
    g.executed = true;
    hot_->graphs_executed->add();
    if (g.error) {
      dump_flight("task-fault");
      std::rethrow_exception(g.error);
    }
  }
}

/// Waits for every task to retire (deterministic mode: actually runs the
/// steps), harvests per-graph observability (FIFO high-water marks), and
/// rethrows the first task error.
void LiquidRuntime::finalize_graph(RtGraph& g) {
  g.wait_done();
  g.tasks.clear();
  g.executed = true;
  hot_->graphs_executed->add();
  hot_->elements_streamed->add(g.nodes.front().array.as_array()->size());

  TraceRecorder* rec = TraceRecorder::current();
  for (size_t i = 0; i < g.fifos.size(); ++i) {
    uint64_t hw = g.fifos[i]->high_water();
    hot_->fifo_high_water->observe(hw);
    if (rec) {
      rec->counter("fifo", "fifo." + std::to_string(i) + ".high_water",
                   static_cast<double>(hw));
      // Edge statistics for the attribution engine: cumulative blocked
      // time on both sides of the FIFO between node i and node i+1.
      rec->instant("fifo", "edge:" + std::to_string(i),
                   JsonArgs()
                       .add("gid", g.gid)
                       .add("edge", static_cast<int>(i))
                       .add("producer_blocked_us",
                            g.fifos[i]->producer_blocked_us())
                       .add("consumer_blocked_us",
                            g.fifos[i]->consumer_blocked_us())
                       .add("high_water", hw)
                       .add("capacity",
                            static_cast<uint64_t>(g.fifos[i]->capacity()))
                       .str());
    }
  }
  if (rec && g.trace_start_us >= 0) {
    rec->complete("runtime", "graph.run", g.trace_start_us,
                  rec->now_us() - g.trace_start_us,
                  JsonArgs()
                      .add("nodes", static_cast<uint64_t>(g.nodes.size()))
                      .add("gid", g.gid)
                      .str());
    if (config_.attribution && g.gid != 0) {
      // Attribution is post-mortem analysis: only queue the gid here. The
      // trace walk runs at the first consumer (attributions(), report(),
      // a telemetry scrape) so the run itself never pays for it.
      std::lock_guard<std::mutex> lock(attr_mu_);
      attr_pending_.push_back(g.gid);
    }
  }
  if (g.error) {
    dump_flight("task-fault");
    std::rethrow_exception(g.error);
  }
}

void LiquidRuntime::run_inline(RtGraph& g) {
  TraceRecorder* rec = TraceRecorder::current();
  const bc::ArrayRef& src = g.nodes.front().array.as_array();
  std::vector<Value> stream;
  stream.reserve(src->size());
  for (size_t i = 0; i < src->size(); ++i) {
    stream.push_back(bc::array_get(*src, i));
  }
  hot_->elements_streamed->add(stream.size());

  for (size_t ni = 1; ni + 1 < g.nodes.size(); ++ni) {
    RtNode& n = g.nodes[ni];
    if (n.kind == RtNode::Kind::kDevice) {
      TraceSpan span;
      if (rec) span.begin(rec, "task", "device:" + n.label);
      DeviceRun run(*this, n, rec);
      size_t k = run.arity();
      size_t usable = (stream.size() / k) * k;
      // Chunked like the threaded path: the cost model sees the same batch
      // granularity and the drift check can fire mid-stream.
      size_t chunk = std::max<size_t>(config_.device_batch, 1) * k;
      std::vector<Value> next;
      next.reserve(usable / k);
      for (size_t off = 0; off < usable; off += chunk) {
        size_t len = std::min(chunk, usable - off);
        std::vector<Value> produced =
            run.process(std::span<const Value>(stream.data() + off, len));
        next.insert(next.end(), std::make_move_iterator(produced.begin()),
                    std::make_move_iterator(produced.end()));
      }
      stream = std::move(next);
      if (span.active()) {
        span.set_args(JsonArgs()
                          .add("batches", run.batches())
                          .add("elements", run.elements())
                          .add("bytes_to_device", run.bytes_to_device())
                          .add("bytes_from_device", run.bytes_from_device())
                          .str());
      }
    } else {
      TraceSpan span;
      if (rec) span.begin(rec, "task", "filter:" + n.task_id);
      size_t k = static_cast<size_t>(n.arity);
      std::vector<Value> next;
      next.reserve(stream.size() / k + 1);
      std::vector<Value> args(k);
      for (size_t i = 0; i + k <= stream.size(); i += k) {
        for (size_t j = 0; j < k; ++j) args[j] = stream[i + j];
        next.push_back(interp_.call(n.method_index, args));
      }
      if (span.active()) {
        span.set_args(JsonArgs()
                          .add("fires", static_cast<uint64_t>(next.size()))
                          .str());
      }
      stream = std::move(next);
    }
  }

  const bc::ArrayRef& dst = g.nodes.back().array.as_array();
  if (stream.size() > dst->size()) {
    throw RuntimeError("sink array too small: produced " +
                       std::to_string(stream.size()) + " elements into " +
                       std::to_string(dst->size()));
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    bc::array_set(*dst, i, stream[i]);
  }
}

// ---------------------------------------------------------------------------
// Executor tasks: one cooperative state machine per graph node
// ---------------------------------------------------------------------------

namespace {
/// Work budget per step: the values a task moves through each of its FIFOs
/// (and the firings a filter runs) before yielding kReady. Bounds step
/// latency and per-task buffers, so workers interleave tasks fairly and the
/// deterministic scheduler gets frequent decision points.
constexpr size_t kStepQuantum = 256;
}  // namespace

/// Shared shape of all node tasks: step() delegates to run_slice() and
/// converts a thrown error into the graph's hop-by-hop unwind (close the
/// input so the producer above fails fast, record the error — which sweeps
/// every queue — then finish the output), exactly like the old per-node
/// threads. Emits one "task" complete-span covering first step through
/// retirement so traces keep their per-task rows.
///
/// Data moves per step, not per element: a task pops a batch into inbox_,
/// stages its results in outbox_ and pushes them with one try_push_batch,
/// so each step takes one lock per FIFO and wakes each neighbour at most
/// once.
class LiquidRuntime::NodeTask : public ExecTask {
 public:
  NodeTask(LiquidRuntime& rt, RtGraph* g, std::shared_ptr<ValueFifo> in,
           std::shared_ptr<ValueFifo> out, std::string trace_name)
      : rt_(rt),
        graph_(g),
        in_(std::move(in)),
        out_(std::move(out)),
        rec_(TraceRecorder::current()),
        trace_name_(std::move(trace_name)) {}

  StepResult step() final {
    if (rec_ && first_us_ < 0) first_us_ = rec_->now_us();
    try {
      StepResult r = run_slice();
      if (r == StepResult::kDone) emit_span();
      return r;
    } catch (...) {
      if (in_) in_->close();
      graph_->note_error(std::current_exception());
      if (out_) out_->finish();
      emit_span();
      return StepResult::kDone;
    }
  }

  void retired() final { graph_->task_retired(); }

  /// The label this task's "task"/"exec" spans carry ("source",
  /// "filter:<id>", "device:<label>", ...).
  const std::string& span_name() const { return trace_name_; }

 protected:
  /// One bounded slice of the node's work, using only try-operations.
  virtual StepResult run_slice() = 0;
  virtual std::string span_args() const { return {}; }

  /// Sizes inbox_ and outbox_ for one step's batch, capped by the stream
  /// length, so they never grow inside a step. Called from the
  /// constructors, on the thread that builds the graph: buffers grown by
  /// whichever worker runs a step would raise the peak of every worker's
  /// malloc arena instead of one.
  void reserve_batches(size_t in_values, size_t out_values) {
    const size_t n = graph_->nodes.front().array.as_array()->size();
    inbox_.reserve(std::min(in_values, n));
    outbox_.reserve(std::min(out_values, n));
  }

  /// Pushes the staged outbox_ downstream. kReady once it is empty;
  /// kBlocked after a failed try on a full queue (a partial accept leaves
  /// the queue full, so the retry is that failed try); kDone when
  /// downstream closed, after closing our own input so the producer above
  /// unwinds too.
  StepResult push_outbox() {
    while (out_next_ < outbox_.size()) {
      switch (out_->try_push_batch(outbox_, &out_next_)) {
        case FifoSignal::kOk:
          break;
        case FifoSignal::kWouldBlock:
          set_block_reason(BlockReason::kPush);
          return StepResult::kBlocked;
        default:
          if (in_) in_->close();
          return StepResult::kDone;
      }
    }
    outbox_.clear();
    out_next_ = 0;
    return StepResult::kReady;
  }

  LiquidRuntime& rt_;
  RtGraph* graph_;
  std::shared_ptr<ValueFifo> in_, out_;
  /// Popped from in_, not yet consumed (at most one step's worth).
  std::vector<Value> inbox_;
  /// Produced for out_; [out_next_, end) is not yet accepted downstream.
  std::vector<Value> outbox_;
  size_t out_next_ = 0;
  /// Captured once at construction: the recorder must stay installed for
  /// the graph's lifetime (install/uninstall around whole runs).
  TraceRecorder* rec_;

 private:
  void emit_span() {
    if (!rec_ || first_us_ < 0) return;
    rec_->complete("task", trace_name_, first_us_, rec_->now_us() - first_us_,
                   span_args());
  }

  std::string trace_name_;
  double first_us_ = -1;
};

class LiquidRuntime::SourceTask final : public NodeTask {
 public:
  SourceTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
             std::shared_ptr<ValueFifo> out)
      : NodeTask(rt, g, nullptr, std::move(out), "source"), node_(node) {
    reserve_batches(0, kStepQuantum);
  }

 protected:
  StepResult run_slice() override {
    if (outbox_.empty()) {
      const bc::ArrayRef& src = node_->array.as_array();
      if (i_ == src->size()) {
        out_->finish();
        return StepResult::kDone;
      }
      const size_t end = std::min(src->size(), i_ + kStepQuantum);
      for (; i_ < end; ++i_) outbox_.push_back(bc::array_get(*src, i_));
    }
    return push_outbox();
  }

  std::string span_args() const override {
    const uint64_t pushed = i_ - (outbox_.size() - out_next_);
    return JsonArgs().add("elements", pushed).str();
  }

 private:
  RtNode* node_;
  size_t i_ = 0;  // next array index to stage
};

class LiquidRuntime::SinkTask final : public NodeTask {
 public:
  SinkTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
           std::shared_ptr<ValueFifo> in)
      : NodeTask(rt, g, std::move(in), nullptr, "sink"), node_(node) {
    reserve_batches(kStepQuantum, 0);
  }

 protected:
  StepResult run_slice() override {
    inbox_.clear();
    switch (in_->try_pop_batch(kStepQuantum, &inbox_)) {
      case FifoSignal::kOk:
        break;
      case FifoSignal::kWouldBlock:
        set_block_reason(BlockReason::kPop);
        return StepResult::kBlocked;
      default:  // kEndOfStream (complete) or kShutdown (error unwind)
        return StepResult::kDone;
    }
    const bc::ArrayRef& dst = node_->array.as_array();
    if (inbox_.size() > dst->size() - i_) {
      throw RuntimeError("sink array too small");
    }
    for (const Value& v : inbox_) bc::array_set(*dst, i_++, v);
    return StepResult::kReady;
  }

  std::string span_args() const override {
    return JsonArgs().add("elements", static_cast<uint64_t>(i_)).str();
  }

 private:
  RtNode* node_;
  size_t i_ = 0;
};

class LiquidRuntime::FilterTask final : public NodeTask {
 public:
  FilterTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
             std::shared_ptr<ValueFifo> in, std::shared_ptr<ValueFifo> out)
      : NodeTask(rt, g, std::move(in), std::move(out),
                 "filter:" + node->task_id),
        node_(node),
        interp_(*rt.program_.bytecode) {
    reserve_batches(kStepQuantum * static_cast<size_t>(node->arity),
                    kStepQuantum);
  }

 protected:
  StepResult run_slice() override {
    if (outbox_.empty()) {
      const size_t k = static_cast<size_t>(node_->arity);
      switch (in_->try_pop_batch(kStepQuantum * k - inbox_.size(), &inbox_)) {
        case FifoSignal::kOk:
          break;
        case FifoSignal::kWouldBlock:
          set_block_reason(BlockReason::kPop);
          return StepResult::kBlocked;
        default:
          // End of stream (a trailing partial firing is dropped) or shutdown.
          out_->finish();
          return StepResult::kDone;
      }
      // Every whole firing runs now; a partial one waits in inbox_ for the
      // rest of its arguments.
      auto first = inbox_.begin();
      for (; inbox_.end() - first >= static_cast<long>(k); first += k) {
        outbox_.push_back(interp_.call(
            node_->method_index,
            std::vector<Value>(std::make_move_iterator(first),
                               std::make_move_iterator(first + k))));
        ++fires_;
      }
      inbox_.erase(inbox_.begin(), first);
    }
    return push_outbox();
  }

  std::string span_args() const override {
    return JsonArgs().add("fires", fires_).str();
  }

 private:
  RtNode* node_;
  /// A private interpreter per task: the module is shared read-only, and
  /// two steps of the same task never run concurrently.
  bc::Interpreter interp_;
  uint64_t fires_ = 0;
};

class LiquidRuntime::DeviceTask final : public NodeTask {
 public:
  DeviceTask(LiquidRuntime& rt, RtGraph* g, RtNode* node,
             std::shared_ptr<ValueFifo> in, std::shared_ptr<ValueFifo> out)
      : NodeTask(rt, g, std::move(in), std::move(out),
                 "device:" + node->label),
        run_(rt, *node, TraceRecorder::current()) {}

  /// Forwards the owning graph's identity into this node's drain spans.
  void bind_trace_ids(uint64_t gid, int node) { run_.set_trace_ids(gid, node); }

 protected:
  StepResult run_slice() override {
    // 1. Resolve a completed asynchronous batch — or keep waiting on it
    //    (a close() waker may fire while the RPC is still in flight; the
    //    reply or its deadline will wake us again).
    if (run_.async_in_flight()) {
      if (!run_.async_ready()) {
        set_block_reason(BlockReason::kRpc);
        return StepResult::kBlocked;
      }
      outbox_ = run_.collect_async();
    }
    // 2. Flush buffered results downstream.
    if (StepResult r = push_outbox(); r != StepResult::kReady) return r;
    if (eof_) {
      out_->finish();
      return StepResult::kDone;
    }
    // 3. Gather up to one device batch, firing opportunistically on
    //    whatever arrived (like the old pop_batch loop — batch size only
    //    affects amortization, never the output, which depends solely on
    //    element order).
    const size_t k = run_.arity();
    const size_t target = std::max<size_t>(rt_.config_.device_batch, 1) * k;
    while (inbox_.size() < target) {
      FifoSignal s = in_->try_pop_batch(target - inbox_.size(), &inbox_);
      if (s == FifoSignal::kWouldBlock) break;
      if (s != FifoSignal::kOk) {
        eof_ = true;  // kEndOfStream, or kShutdown: drain what we have
        break;
      }
    }
    size_t usable = (inbox_.size() / k) * k;
    if (usable == 0) {
      if (eof_) {
        out_->finish();
        return StepResult::kDone;
      }
      set_block_reason(BlockReason::kPop);
      return StepResult::kBlocked;  // parked after the failed try above
    }
    // 4. One batch per step. Remote artifacts go asynchronous: the RPC
    //    parks this task, not a worker thread.
    if (run_.can_issue_async()) {
      std::vector<Value> chunk(
          std::make_move_iterator(inbox_.begin()),
          std::make_move_iterator(inbox_.begin() + static_cast<long>(usable)));
      inbox_.erase(inbox_.begin(), inbox_.begin() + static_cast<long>(usable));
      Executor* ex = executor();
      // Begin-before-issue / end-after-wake: the external-pending bracket
      // must cover the whole window in which the completion callback is
      // the only thing that can wake this task, or deterministic drive()
      // could mistake a live wait for a deadlock.
      ex->note_external_begin();
      try {
        run_.issue_async(std::move(chunk), [this, ex] {
          ex->wake(this);
          ex->note_external_end();
        });
      } catch (...) {
        ex->note_external_end();
        throw;
      }
      set_block_reason(BlockReason::kRpc);
      return StepResult::kBlocked;  // woken by the completion callback
    }
    outbox_ = run_.process(std::span<const Value>(inbox_.data(), usable));
    inbox_.erase(inbox_.begin(), inbox_.begin() + static_cast<long>(usable));
    return StepResult::kReady;  // flush (and refill) next step
  }

  std::string span_args() const override {
    return JsonArgs()
        .add("batches", run_.batches())
        .add("elements", run_.elements())
        .add("bytes_to_device", run_.bytes_to_device())
        .add("bytes_from_device", run_.bytes_from_device())
        .str();
  }

 private:
  DeviceRun run_;
  bool eof_ = false;
};

namespace {
/// Process-unique run ids for executor graphs; 0 means "never reached the
/// executor" and is skipped by the attribution engine.
std::atomic<uint64_t> g_next_gid{1};
}  // namespace

void LiquidRuntime::run_executor(RtGraph& g) {
  std::shared_ptr<Executor> ex = ensure_executor();
  g.executor = ex;
  g.gid = g_next_gid.fetch_add(1, std::memory_order_relaxed);
  size_t n_nodes = g.nodes.size();
  g.fifos.clear();
  for (size_t i = 0; i + 1 < n_nodes; ++i) {
    g.fifos.push_back(std::make_shared<ValueFifo>(config_.fifo_capacity));
  }
  g.tasks.clear();
  for (size_t ni = 0; ni < n_nodes; ++ni) {
    RtNode* node = &g.nodes[ni];
    std::shared_ptr<ValueFifo> in = ni > 0 ? g.fifos[ni - 1] : nullptr;
    std::shared_ptr<ValueFifo> out = ni + 1 < n_nodes ? g.fifos[ni] : nullptr;
    switch (node->kind) {
      case RtNode::Kind::kSource:
        g.tasks.push_back(
            std::make_unique<SourceTask>(*this, &g, node, std::move(out)));
        break;
      case RtNode::Kind::kSink:
        g.tasks.push_back(
            std::make_unique<SinkTask>(*this, &g, node, std::move(in)));
        break;
      case RtNode::Kind::kFilter:
        g.tasks.push_back(std::make_unique<FilterTask>(
            *this, &g, node, std::move(in), std::move(out)));
        break;
      case RtNode::Kind::kDevice: {
        auto dev = std::make_unique<DeviceTask>(*this, &g, node,
                                                std::move(in), std::move(out));
        dev->bind_trace_ids(g.gid, static_cast<int>(ni));
        g.tasks.push_back(std::move(dev));
        break;
      }
    }
    // Stamp identity so the executor's coalesced "exec" dispatch spans can
    // be bound back to this graph's node lane by the attribution engine.
    auto* task = static_cast<NodeTask*>(g.tasks.back().get());
    task->set_trace_info(task->span_name(), g.gid, static_cast<int>(ni));
  }
  g.live = g.tasks.size();
  // Readiness wiring: FIFO i sits between node i (producer) and node i+1
  // (consumer); its not-full edge wakes the producer, its not-empty edge
  // the consumer. Raw pointers are safe — the graph owns the tasks and
  // co-owns the executor, and destroys itself only after every task
  // retired (the completion latch).
  for (size_t i = 0; i < g.fifos.size(); ++i) {
    Executor* exp = ex.get();
    ExecTask* prod = g.tasks[i].get();
    ExecTask* cons = g.tasks[i + 1].get();
    g.fifos[i]->set_producer_waker([exp, prod] { exp->wake(prod); });
    g.fifos[i]->set_consumer_waker([exp, cons] { exp->wake(cons); });
  }
  for (auto& t : g.tasks) ex->submit(t.get());
}

// ---------------------------------------------------------------------------
// AccelHooks: data-parallel operator offload (§2.2)
// ---------------------------------------------------------------------------

bool LiquidRuntime::try_map(const std::string& task_id,
                            std::span<const Value> args, uint32_t array_mask,
                            Value* out) {
  if (!config_.accelerate_maps || config_.placement == Placement::kCpuOnly ||
      config_.placement == Placement::kFpgaOnly) {
    hot_->maps_interpreted->add();
    return false;
  }
  Artifact* a = program_.store.find(task_id, DeviceKind::kGpu);
  if (!a) {
    hot_->maps_interpreted->add();
    return false;
  }
  *out = static_cast<GpuKernelArtifact*>(a)->run_map(args, array_mask);
  hot_->maps_accelerated->add();
  return true;
}

bool LiquidRuntime::try_reduce(const std::string& task_id, const Value& array,
                               Value* out) {
  if (!config_.accelerate_maps || config_.placement == Placement::kCpuOnly ||
      config_.placement == Placement::kFpgaOnly) {
    hot_->reduces_interpreted->add();
    return false;
  }
  Artifact* a = program_.store.find(task_id, DeviceKind::kGpu);
  if (!a || array.as_array()->size() == 0) {
    hot_->reduces_interpreted->add();
    return false;
  }
  *out = static_cast<GpuKernelArtifact*>(a)->run_reduce(array);
  hot_->reduces_accelerated->add();
  return true;
}

}  // namespace lm::runtime
