// Workload `fleet_outage`: FleetDriver at the fleet_scale shape (500
// devices x 200 stores, K=2, 4 x 12-object clusters per device) with
// directory placement and the overload controls on. The script, in order:
// Build(); steady RunRounds; a 20% InjectCorrelatedOutage;
// RunRecoveryStorm against bounded priority-shedding store queues;
// RunUntilRecovered, then quiet polls until the monitors stop scanning.
// One op = one simulated swap-in or swap-out; the storm's demand faults
// are its closed-loop callers. Only this workload exercises placement,
// incremental durability, store admission, retry budgets and simulator
// throughput; it uses the swap layer with XML, small clusters and no
// device caches.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fleet/driver.h"
#include "net/sim_clock.h"
#include "net/store_node.h"
#include "replay.h"
#include "workload/list_workload.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

namespace fleet = obiswap::fleet;
namespace net = obiswap::net;
using obiswap::Result;

constexpr size_t kDevices = 500;
constexpr size_t kStores = 200;
constexpr int kClustersPerDevice = 4;
constexpr int kObjectsPerCluster = 12;
constexpr size_t kReplicas = 2;
constexpr double kOutageFraction = 0.20;
constexpr int kStormPolls = 3;
/// Six silent polls mark a store departed, so repair of the outage runs
/// into the recovery phase instead of finishing inside the storm.
constexpr int kMissThreshold = 6;
constexpr int kMaxRecoveryPolls = 100;
constexpr int kMaxSettlePolls = 10;
/// Cluster documents the traced run captures for the replays.
constexpr size_t kCapturedPayloads = 400;

/// The seed picks the durability poll cadence (200-300 ms of virtual time),
/// which moves when departures are detected and how far store queues drain
/// between polls; the op script is the same for every seed.
uint64_t PollPeriodUs(uint64_t seed) { return 200'000 + (seed % 101) * 1'000; }

fleet::FleetOptions Options(uint64_t seed) {
  fleet::FleetOptions options;
  options.devices = kDevices;
  options.stores = kStores;
  options.clusters_per_device = kClustersPerDevice;
  options.objects_per_cluster = kObjectsPerCluster;
  options.replication_factor = kReplicas;
  options.use_directory = true;
  options.overload_controls = true;
  options.seed = seed;
  options.poll_period_us = PollPeriodUs(seed);
  options.miss_threshold = kMissThreshold;
  return options;
}

/// The storm's store queues: one service slot and one waiting slot per
/// store, 2 s of virtual service per request, shed lowest priority first —
/// the surviving stores saturate and shed while demand keeps its share.
net::StoreNode::QueueOptions StormQueue() {
  net::StoreNode::QueueOptions queue;
  queue.enabled = true;
  queue.concurrency = 1;
  queue.queue_limit = 1;
  queue.service_time_us = 2'000'000;
  queue.priority_shedding = true;
  return queue;
}

/// Timed steady rounds before the outage.
constexpr int kSteadyRounds = 2;

/// Untimed rounds between Build() and the timed phase.
constexpr int kWarmRounds = 1;

uint64_t SwapOps(const fleet::FleetReport& r) { return r.swap_outs + r.swap_ins; }

struct Totals {
  std::vector<double> setup_s;
  std::vector<double> op_ns;  ///< per round / storm / recovery call, per op
  std::vector<double> round_ns, poll_ns;
  std::vector<double> pass_rate;  ///< swap ops per host second, per pass
  uint64_t ops = 0;
  uint64_t failed = 0;
  // First pass only: the simulated outcome, identical on every pass.
  fleet::FleetReport built, before_storm, after_storm, final_report;
  fleet::StormReport storm;
  uint64_t storm_start_us = 0, storm_end_us = 0;
  int recovery_polls = 0;
  int fleet_polls = 0;
  size_t stores_killed = 0;
  double rss_kib_per_device = 0.0;
  std::string digest;
  std::string input_digest;
  ReplayInputs replay;
  std::vector<obiswap::DeviceId> store_ids;
};

/// Reads up to kCapturedPayloads cluster documents off the stores.
bool CaptureForReplay(fleet::FleetDriver& driver, ReplayInputs* inputs) {
  for (size_t i = 0; i < driver.store_count(); ++i) {
    net::StoreNode* store = driver.store_at(i);
    for (obiswap::SwapKey key : store->Keys()) {
      if (inputs->payloads.size() >= kCapturedPayloads) return true;
      const std::string* stored = store->Peek(key);
      if (stored == nullptr) continue;
      if (!CapturePayload(0, *stored, {key.value()}, inputs))
        return Fail("fleet_outage store holds a damaged cluster document");
      // The cluster id the document was serialized under.
      CapturedPayload& captured = inputs->payloads.back();
      Result<std::unique_ptr<obiswap::xml::Node>> root =
          obiswap::xml::Parse(captured.doc);
      Result<int64_t> id =
          root.ok() ? (*root)->GetIntAttr("id") : Result<int64_t>(root.status());
      if (!id.ok()) return Fail("fleet_outage store holds a non-XML cluster");
      captured.cluster_id = static_cast<uint32_t>(*id);
    }
  }
  return true;
}

bool RunPass(const RunOptions& options, int pass, bool capture,
             SpanRecorder& spans, Totals* t, uint64_t* op_id) {
  const double rss_before = CurrentRssKib();
  const double setup_start = NowNs();
  fleet::FleetDriver driver(Options(options.seed));
  const obiswap::Status built = driver.Build();
  if (!built.ok()) return Fail("fleet_outage Build(): " + built.ToString());
  const obiswap::Status warmed = driver.RunRounds(kWarmRounds);
  if (!warmed.ok()) return Fail("fleet_outage warm-up: " + warmed.ToString());
  t->setup_s.push_back((NowNs() - setup_start) / 1e9);
  const double rss_kib_per_device =
      (CurrentRssKib() - rss_before) / static_cast<double>(kDevices);

  const fleet::FleetReport built_report = driver.Report();
  uint64_t ops_before = SwapOps(built_report);
  int fleet_polls = 0;
  // Host ns per swap op of one scripted call.
  auto record = [&](double ns) {
    const uint64_t ops_now = SwapOps(driver.Report());
    if (ops_now > ops_before)
      t->op_ns.push_back(ns / static_cast<double>(ops_now - ops_before));
    ops_before = ops_now;
  };

  double timed_ns = 0.0;
  for (int r = 0; r < kSteadyRounds; ++r) {
    const double t0 = NowNs();
    obiswap::Status ran;
    {
      ScopedSpan span(spans, "RunRounds", (*op_id)++);
      ran = driver.RunRounds(1);
    }
    const double ns = NowNs() - t0;
    timed_ns += ns;
    if (!ran.ok()) return Fail("fleet_outage RunRounds: " + ran.ToString());
    t->round_ns.push_back(ns);
    ++fleet_polls;
    record(ns);
  }

  double t0 = NowNs();
  driver.ConfigureStoreQueues(StormQueue());
  const size_t killed = driver.InjectCorrelatedOutage(kOutageFraction);
  timed_ns += NowNs() - t0;
  const fleet::FleetReport before_storm = driver.Report();
  const uint64_t storm_start_us = driver.clock().now_us();

  t0 = NowNs();
  Result<fleet::StormReport> storm = obiswap::InternalError("storm not run");
  {
    ScopedSpan span(spans, "storm", (*op_id)++);
    storm = driver.RunRecoveryStorm(kStormPolls);
  }
  double ns = NowNs() - t0;
  timed_ns += ns;
  if (!storm.ok()) return Fail("fleet_outage storm: " + storm.status().ToString());
  fleet_polls += kStormPolls;
  record(ns);
  const fleet::FleetReport after_storm = driver.Report();
  const uint64_t storm_end_us = driver.clock().now_us();

  t0 = NowNs();
  Result<int> recovered = obiswap::InternalError("recovery not run");
  {
    ScopedSpan span(spans, "RunUntilRecovered", (*op_id)++);
    recovered = driver.RunUntilRecovered(kMaxRecoveryPolls);
  }
  ns = NowNs() - t0;
  timed_ns += ns;
  if (!recovered.ok())
    return Fail("fleet_outage did not recover: " + recovered.status().ToString());
  fleet_polls += *recovered;
  // Quiet polls: the churn episode ends when the monitors stop scanning.
  for (int settle = 0; settle < kMaxSettlePolls; ++settle) {
    const uint64_t scanned = driver.Report().scan_replicas;
    t0 = NowNs();
    {
      ScopedSpan span(spans, "PollAll", (*op_id)++);
      driver.PollAll();
    }
    ns = NowNs() - t0;
    timed_ns += ns;
    t->poll_ns.push_back(ns);
    ++fleet_polls;
    if (driver.Report().scan_replicas == scanned) break;
  }

  const fleet::FleetReport final_report = driver.Report();
  const uint64_t ops = SwapOps(final_report) - SwapOps(built_report);
  t->ops += ops + storm->demand_failures;
  t->pass_rate.push_back(static_cast<double>(ops) / (timed_ns / 1e9));
  t->failed += storm->demand_failures;

  if (final_report.clusters_lost != 0 || final_report.clusters_below_k != 0) {
    return Fail("fleet_outage ended with " +
                std::to_string(final_report.clusters_lost) + " clusters lost, " +
                std::to_string(final_report.clusters_below_k) + " below K");
  }
  if (killed < kStores / 10)
    return Fail("fleet_outage outage took down only " + std::to_string(killed) +
                " stores");

  if (capture && pass == 0 && !CaptureForReplay(driver, &t->replay)) return false;

  Digest digest;
  digest.Add(driver.clock().now_us());
  for (const fleet::FleetReport* r : {&built_report, &before_storm, &after_storm,
                                      &final_report}) {
    for (uint64_t v : {r->swap_outs, r->swap_ins, r->replicas_placed,
                       r->fleet_placements, r->replicas_lost,
                       r->replicas_re_replicated, r->stores_departed,
                       r->scan_replicas, r->full_scan_replicas, r->virtual_us,
                       r->logical_calls, r->wire_attempts, r->client_pushbacks,
                       r->retry_budget_exhausted, r->queue_wait_us,
                       r->max_queue_depth, r->store_sheds, r->repairs_paced,
                       static_cast<uint64_t>(r->live_stores)})
      digest.Add(v);
    char balance[32];
    std::snprintf(balance, sizeof(balance), "%.17g", r->balance_max_over_mean);
    digest.Add(balance);
  }
  for (uint64_t v : {static_cast<uint64_t>(storm->polls), storm->demand_faults,
                     storm->demand_failures, storm->total_stall_us,
                     storm->p95_stall_us, storm->max_stall_us,
                     static_cast<uint64_t>(*recovered),
                     static_cast<uint64_t>(killed)})
    digest.Add(v);

  if (pass == 0) {
    t->built = built_report;
    t->before_storm = before_storm;
    t->after_storm = after_storm;
    t->final_report = final_report;
    t->storm = *storm;
    t->storm_start_us = storm_start_us;
    t->storm_end_us = storm_end_us;
    t->recovery_polls = *recovered;
    t->fleet_polls = fleet_polls;
    t->stores_killed = killed;
    t->rss_kib_per_device = rss_kib_per_device;
    t->digest = digest.Hex();
    Digest input;
    input.Add(options.seed);
    input.Add(PollPeriodUs(options.seed));
    t->input_digest = input.Hex();
    for (size_t i = 0; i < driver.store_count(); ++i)
      t->store_ids.push_back(driver.store_at(i)->device());
  } else if (digest.Hex() != t->digest) {
    return Fail("fleet_outage pass " + std::to_string(pass) +
                " simulated a different outcome than pass 0");
  }
  return true;
}

void ReportExact(const Totals& t, MetricSet& m) {
  const fleet::FleetReport& b = t.built;
  const fleet::FleetReport& f = t.final_report;
  const fleet::FleetReport& s0 = t.before_storm;
  const fleet::FleetReport& s1 = t.after_storm;
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double faults = static_cast<double>(t.storm.demand_faults);
  const double ops = d(SwapOps(f), SwapOps(b)) +
                     static_cast<double>(t.storm.demand_failures);
  m.Set("fault_stall_ms_p95", static_cast<double>(t.storm.p95_stall_us) / 1e3,
        "ms");
  m.Set("recovery_polls", static_cast<double>(t.recovery_polls), "polls");
  m.Set("failed_op_share",
        Ratio(static_cast<double>(t.storm.demand_failures), ops), "ratio");
  m.Set("swap.durability_scan_per_poll",
        d(f.scan_replicas, b.scan_replicas) / t.fleet_polls, "count");
  m.Set("swap.re_replications",
        d(f.replicas_re_replicated, b.replicas_re_replicated), "count");
  m.Set("net.wire_attempts_per_call",
        Ratio(d(f.wire_attempts, b.wire_attempts),
              d(f.logical_calls, b.logical_calls)),
        "ratio");
  m.Set("net.queue_wait_ms_per_fault",
        Ratio(d(s1.queue_wait_us, s0.queue_wait_us) / 1e3, faults), "ms");
  m.Set("net.sheds_per_fault", Ratio(d(s1.store_sheds, s0.store_sheds), faults),
        "count");
  m.Set("net.demand_shed_share",
        Ratio(d(s1.store_sheds_by_class[0], s0.store_sheds_by_class[0]),
              d(s1.store_sheds, s0.store_sheds)),
        "ratio");
  m.Set("net.retry_budget_exhausted",
        d(f.retry_budget_exhausted, b.retry_budget_exhausted), "count");
  m.Set("fleet.balance_max_over_mean", f.balance_max_over_mean, "ratio");
  m.Set("fleet.stores_killed", static_cast<double>(t.stores_killed), "count");
}

}  // namespace

bool RunFleetOutage(const RunOptions& options, WorkloadOutcome* out) {
  uint64_t op_id = 1;
  SpanRecorder untraced(false);
  Totals plain;
  const double plain_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  if (RunPasses(plain_seconds, 3, [&](int pass) {
        return RunPass(options, pass, /*capture=*/false, untraced, &plain,
                       &op_id);
      }) < 0)
    return false;

  MetricSet& m = out->metrics;
  m.Set("setup_s", Median(plain.setup_s), "s");
  m.Set("ops_per_s", Median(plain.pass_rate), "ops/s");
  m.Set("op_host_us_p50", Median(plain.op_ns) / 1e3, "us");
  ReportExact(plain, m);
  m.Set("fleet.rss_kib_per_device", plain.rss_kib_per_device, "KiB");
  out->attempted = plain.ops;
  out->failed = plain.failed;
  out->digest = plain.digest;
  out->input_digest = plain.input_digest;

  if (options.trace) {
    SpanRecorder spans(true);
    Totals traced;
    if (RunPasses(options.seconds / 2, 2, [&](int pass) {
          return RunPass(options, pass, /*capture=*/true, spans, &traced,
                         &op_id);
        }) < 0)
      return false;
    const double plain_rate = m.Get("ops_per_s");
    const double traced_rate = Median(traced.pass_rate);
    m.Set("bench.trace_overhead_pct",
          100.0 * Ratio(plain_rate - traced_rate, plain_rate), "%");
    m.Set("fleet.round_host_ms_p50", Median(spans.DurationNs("RunRounds")) / 1e6,
          "ms");
    m.Set("fleet.poll_host_ms_p50", Median(spans.DurationNs("PollAll")) / 1e6,
          "ms");
    std::vector<double> storm_ns = spans.DurationNs("storm");
    m.Set("fleet.storm_poll_host_ms", Median(storm_ns) / 1e6 / kStormPolls, "ms");

    ReplayInputs& replay = traced.replay;
    replay.register_classes = obiswap::workload::RegisterNodeClass;
    if (replay.payloads.empty())
      return Fail("fleet_outage captured no cluster documents to replay");
    if (!ReplaySerialization(replay, /*xml=*/true, m) ||
        !ReplayXmlText(replay, m) || !ReplayRpc(replay, m))
      return false;
    ReplayAdmit(StormQueue(), traced.storm_start_us, traced.storm_end_us,
                static_cast<size_t>(traced.after_storm.logical_calls -
                                    traced.before_storm.logical_calls),
                m);
    ReplayTargets(traced.store_ids, kDevices, kClustersPerDevice, kReplicas, m);
    if (!options.trace_out.empty()) spans.Dump(options.trace_out, "fleet_outage", kDumpedSpans);
  }
  m.Set("peak_rss_mib", PeakRssKib() / 1024.0, "MiB");
  return true;
}

}  // namespace perfbench
