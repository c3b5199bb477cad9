// Workload `traverse`: the Fig-5 traversals A2, B1 and B2, cycled over a
// resident 10,000-node list cut into 20-object swap-clusters. Nothing
// swaps; every call pays swap-cluster-proxy mediation, so this isolates the
// runtime and the proxies. One op = one full traversal; closed loop, one
// caller, on the one big-stack thread the recursion needs.
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "common/rng.h"
#include "runtime/runtime.h"
#include "swap/manager.h"
#include "workload/list_workload.h"

namespace perfbench {
namespace {

using obiswap::Result;
using obiswap::Rng;
using obiswap::SwapClusterId;
using obiswap::runtime::LocalScope;
using obiswap::runtime::Object;
using obiswap::runtime::Runtime;
using obiswap::runtime::Value;

constexpr int kListSize = 10000;
constexpr int kClusterSize = 20;
constexpr int kCyclesPerPass = 24;  ///< timed A2/B1/B2 cycles per pass
constexpr int kGcSamples = 9;

enum class Kind { kA2, kB1, kB2 };
const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kA2: return "A2";
    case Kind::kB1: return "B1";
    case Kind::kB2: return "B2";
  }
  return "?";
}

/// One list: with a manager (clustered) or raw (the no-swap lower bound).
struct World {
  World(uint64_t seed, bool clustered) {
    rt = std::make_unique<Runtime>(1);
    node_cls = obiswap::workload::RegisterNodeClass(*rt);
    if (clustered) manager = std::make_unique<obiswap::swap::SwappingManager>(*rt);
    // The list of workload::BuildList, with seeded node values so each
    // seed's checksum traversal expects a different sum.
    Rng rng(seed);
    std::vector<SwapClusterId> clusters;
    if (manager != nullptr) {
      for (int i = 0; i < kListSize / kClusterSize; ++i)
        clusters.push_back(manager->NewSwapCluster());
    }
    LocalScope scope(rt->heap());
    Object** head = scope.Add(nullptr);
    for (int i = kListSize - 1; i >= 0; --i) {
      Object* node = rt->New(node_cls);
      if (manager != nullptr)
        OBISWAP_CHECK(manager->Place(node, clusters[i / kClusterSize]).ok());
      const int64_t value = rng.NextInt(0, 1'000'000);
      expected_sum += value;
      OBISWAP_CHECK(rt->SetField(node, "value", Value::Int(value)).ok());
      if (*head != nullptr)
        OBISWAP_CHECK(rt->SetField(node, "next", Value::Ref(*head)).ok());
      *head = node;
    }
    OBISWAP_CHECK(rt->SetGlobal("head", Value::Ref(*head)).ok());
  }

  Object* Head() { return rt->GetGlobal("head")->ref(); }

  /// One traversal; false if it failed or its result does not match the
  /// list.
  bool Traverse(Kind kind) {
    if (kind == Kind::kA2) {
      Result<Value> depth = rt->Invoke(Head(), "walk", {Value::Int(0)});
      return depth.ok() && depth->is_int() && depth->as_int() == kListSize - 1;
    }
    Result<Value> start = rt->Invoke(Head(), "probe", {Value::Int(0)});
    if (!start.ok() || !rt->SetGlobal("cur", *start).ok()) return false;
    if (kind == Kind::kB2 && manager != nullptr &&
        !manager->Assign(rt->GetGlobal("cur")->ref()).ok())
      return false;
    int steps = 0;
    for (;;) {
      Value cur = *rt->GetGlobal("cur");
      if (!cur.is_ref() || cur.ref() == nullptr) break;
      Result<Value> next = rt->Invoke(cur.ref(), "next");
      if (!next.ok() || !rt->SetGlobal("cur", *next).ok()) return false;
      ++steps;
    }
    return steps == kListSize;
  }

  /// Sums every value along the list by mediated invocation.
  bool ChecksumMatches() {
    if (!rt->SetGlobal("sum_cursor", *rt->GetGlobal("head")).ok()) return false;
    int64_t sum = 0;
    for (int guard = 0; guard <= kListSize; ++guard) {
      Value cur = *rt->GetGlobal("sum_cursor");
      if (!cur.is_ref() || cur.ref() == nullptr) return sum == expected_sum;
      Result<Value> value = rt->Invoke(cur.ref(), "get_value");
      Result<Value> next = rt->Invoke(cur.ref(), "next");
      if (!value.ok() || !next.ok()) return false;
      sum += value->as_int();
      if (!rt->SetGlobal("sum_cursor", *next).ok()) return false;
    }
    return false;
  }

  uint64_t Invocations() const {
    return rt->stats().direct_invocations + rt->stats().intercepted_invocations;
  }

  std::unique_ptr<Runtime> rt;
  std::unique_ptr<obiswap::swap::SwappingManager> manager;
  const obiswap::runtime::ClassInfo* node_cls = nullptr;
  int64_t expected_sum = 0;
};

/// What the timed phases of all passes of one run add up to.
struct Totals {
  std::vector<double> setup_s;
  std::vector<double> op_ns;
  std::vector<double> op_ns_by_kind[3];
  std::vector<double> cycle_ns;  ///< one A2 + B1 + B2 cycle each
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t invocations = 0;
  uint64_t collections = 0;
  uint64_t crossings = 0;
  uint64_t proxies_created = 0;
  uint64_t proxies_reused = 0;
  std::vector<double> gc_ns;
  double live_kib = 0.0;
  std::string digest;
};

/// One pass: build + warm (set-up), then kCyclesPerPass timed cycles.
bool RunPass(uint64_t seed, int pass, SpanRecorder& spans, Totals* totals,
             uint64_t* op_id) {
  const double setup_start = NowNs();
  World world(seed, /*clustered=*/true);
  for (int k = 0; k < 3; ++k) {
    if (!world.Traverse(static_cast<Kind>(k)))
      return Fail("traverse warm-up traversal mismatched the list");
  }
  totals->setup_s.push_back((NowNs() - setup_start) / 1e9);

  const obiswap::swap::SwappingManager::Stats before = world.manager->stats();
  const uint64_t invocations_before = world.Invocations();
  const uint64_t collections_before = world.rt->heap().stats().collections;
  double cycle_start = NowNs();
  for (int i = 0; i < kCyclesPerPass * 3; ++i) {
    const Kind kind = static_cast<Kind>(i % 3);
    ScopedSpan span(spans, "traversal", (*op_id)++);
    const double t0 = NowNs();
    const bool ok = world.Traverse(kind);
    const double t1 = NowNs();
    ++totals->ops;
    if (kind == Kind::kB2) {
      totals->cycle_ns.push_back(t1 - cycle_start);
      cycle_start = t1;
    }
    if (!ok) {
      ++totals->failed;
      continue;
    }
    totals->op_ns.push_back(t1 - t0);
    totals->op_ns_by_kind[static_cast<int>(kind)].push_back(t1 - t0);
  }
  const obiswap::swap::SwappingManager::Stats& after = world.manager->stats();
  totals->invocations += world.Invocations() - invocations_before;
  totals->collections += world.rt->heap().stats().collections - collections_before;
  totals->crossings += after.boundary_crossings - before.boundary_crossings;
  totals->proxies_created += after.proxies_created - before.proxies_created;
  totals->proxies_reused += after.proxies_reused - before.proxies_reused;

  if (!world.ChecksumMatches())
    return Fail("traverse checksum traversal does not match the list");
  Digest digest;
  digest.Add(world.manager->StatsJson());
  digest.Add(static_cast<uint64_t>(world.expected_sum));
  if (pass > 0) {
    if (digest.Hex() != totals->digest)
      return Fail("traverse pass " + std::to_string(pass) +
                  " counted a different outcome than pass 0");
    return true;
  }
  totals->digest = digest.Hex();
  for (int i = 0; i < kGcSamples; ++i) {
    const double t0 = NowNs();
    world.rt->heap().Collect();
    totals->gc_ns.push_back(NowNs() - t0);
  }
  totals->live_kib =
      static_cast<double>(world.rt->heap().stats().last_live_bytes) / 1024.0;
  return true;
}

/// Median host ms per traversal kind on the raw list (no swap-clusters).
void MeasureRawList(uint64_t seed, double by_kind_ms[3]) {
  World raw(seed, /*clustered=*/false);
  for (int k = 0; k < 2; ++k) {
    std::vector<double> ns;
    for (int i = 0; i < 15; ++i) {
      const double t0 = NowNs();
      OBISWAP_CHECK(raw.Traverse(static_cast<Kind>(k)));
      ns.push_back(NowNs() - t0);
    }
    by_kind_ms[k] = Median(ns) / 1e6;
  }
  // Without swap-clusters there is no proxy to assign(): B2 is B1.
  by_kind_ms[2] = by_kind_ms[1];
}

/// The end-to-end figures come from per-cycle medians: a cycle holds one
/// traversal of each kind, so its time does not depend on which kind the
/// median of single traversals happens to land on, and a burst of
/// interference on the host moves few cycles.
void Report(const Totals& totals, MetricSet& m) {
  const double cycle_ns = Median(totals.cycle_ns);
  m.Set("setup_s", Median(totals.setup_s), "s");
  m.Set("ops_per_s", Ratio(3.0, cycle_ns / 1e9), "ops/s");
  m.Set("op_host_us_p50", cycle_ns / 3.0 / 1e3, "us");
  m.Set("traversal_host_ms_p50", Median(totals.op_ns) / 1e6, "ms");
}

}  // namespace

bool RunTraverse(const RunOptions& options, WorkloadOutcome* out) {
  bool ok = true;
  obiswap::workload::RunWithBigStack([&] {
    uint64_t op_id = 1;
    SpanRecorder untraced(false);
    Totals plain;
    const double plain_seconds = options.trace ? options.seconds / 2 : options.seconds;
    if (RunPasses(plain_seconds, 3, [&](int pass) {
          return RunPass(options.seed, pass, untraced, &plain, &op_id);
        }) < 0) {
      ok = false;
      return;
    }
    MetricSet& m = out->metrics;
    Report(plain, m);
    out->attempted = plain.ops;
    out->failed = plain.failed;
    out->digest = plain.digest;
    Digest input;
    input.Add(options.seed);
    input.Add(static_cast<uint64_t>(kListSize));
    out->input_digest = input.Hex();
    m.Set("failed_op_share", Ratio(static_cast<double>(plain.failed),
                                   static_cast<double>(plain.ops)), "ratio");
    if (!options.trace) return;

    // Traced run: same passes with spans on, then the layer figures.
    SpanRecorder spans(true);
    Totals traced;
    if (RunPasses(options.seconds / 2, 2, [&](int pass) {
          return RunPass(options.seed, pass, spans, &traced, &op_id);
        }) < 0) {
      ok = false;
      return;
    }
    const double plain_rate = m.Get("ops_per_s");
    const double traced_rate = Ratio(3.0, Median(traced.cycle_ns) / 1e9);
    m.Set("bench.trace_overhead_pct",
          100.0 * Ratio(plain_rate - traced_rate, plain_rate), "%");
    const double ops = static_cast<double>(traced.ops);
    double traversal_ns = 0.0;
    for (double ns : spans.SelfNs("traversal")) traversal_ns += ns;
    m.Set("runtime.invoke_ns",
          Ratio(traversal_ns, static_cast<double>(traced.invocations)), "ns");
    m.Set("runtime.gc_collections_per_op",
          Ratio(static_cast<double>(traced.collections), ops), "count");
    m.Set("runtime.gc_host_us_p50", Median(traced.gc_ns) / 1e3, "us");
    m.Set("runtime.live_kib", traced.live_kib, "KiB");
    m.Set("swap.crossings_per_op",
          Ratio(static_cast<double>(traced.crossings), ops), "count");
    m.Set("swap.proxies_created_per_op",
          Ratio(static_cast<double>(traced.proxies_created), ops), "count");
    m.Set("swap.proxy_reuse_ratio",
          Ratio(static_cast<double>(traced.proxies_reused),
                static_cast<double>(traced.proxies_created + traced.proxies_reused)),
          "ratio");
    double raw_ms[3];
    MeasureRawList(options.seed, raw_ms);
    double clustered_cycle = 0.0, raw_cycle = 0.0;
    for (int k = 0; k < 3; ++k) {
      clustered_cycle += Median(plain.op_ns_by_kind[k]) / 1e6;
      raw_cycle += raw_ms[k];
      m.Set(std::string("traverse.") + KindName(static_cast<Kind>(k)) +
                "_host_ms_p50",
            Median(plain.op_ns_by_kind[k]) / 1e6, "ms");
    }
    m.Set("swap.mediation_overhead_pct",
          100.0 * Ratio(clustered_cycle - raw_cycle, raw_cycle), "%");
    if (!options.trace_out.empty()) spans.Dump(options.trace_out, "traverse", kDumpedSpans);
  });
  out->metrics.Set("peak_rss_mib", PeakRssKib() / 1024.0, "MiB");
  return ok;
}

}  // namespace perfbench
