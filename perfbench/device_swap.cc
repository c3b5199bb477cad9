// Workload `device_swap`: one device with the whole swap stack on, driven
// by a seeded touch stream over a working set four times its heap.
//
// Stack: OSWB wire format with deltas, lz77, payload cache, RAM and flash
// tiers, intent journal, health tracking with hedged fetch, full-mode
// prefetch, K=2 replicas over 4 stores (one on a slow link). 64 clusters x
// 100 objects; the heap holds about a quarter of them, and the payload
// cache plus the RAM tier hold only part of the swapped bytes, so faults
// land on every tier. Each touch follows a sequential run or makes a
// skewed jump, and ~30% of touches write one field, so the dirty path
// (serialize, diff, compress, journal, ship K) runs beside the clean and
// cached read path. One op = one touch; closed loop, one caller. Before a
// touch on a swapped cluster the bench makes room with SwapOutVictim()
// inside the touch's timing window.
#include <algorithm>
#include <map>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "context/events.h"
#include "net/bridge.h"
#include "net/health.h"
#include "net/network.h"
#include "net/store_node.h"
#include "persist/flash_store.h"
#include "prefetch/prefetcher.h"
#include "replay.h"
#include "runtime/runtime.h"
#include "serialization/graph_binary.h"
#include "swap/durability.h"
#include "swap/intent_journal.h"
#include "swap/manager.h"
#include "tier/tier.h"

namespace perfbench {
namespace {

namespace net = obiswap::net;
namespace swap = obiswap::swap;
using obiswap::DeviceId;
using obiswap::Result;
using obiswap::Rng;
using obiswap::SwapClusterId;
using obiswap::runtime::ClassBuilder;
using obiswap::runtime::ClassInfo;
using obiswap::runtime::LocalScope;
using obiswap::runtime::Object;
using obiswap::runtime::Runtime;
using obiswap::runtime::Value;
using obiswap::runtime::ValueKind;

constexpr int kClusters = 64;
constexpr int kNodes = 100;  ///< objects per swap-cluster
constexpr int kResidentClusters = 16;
/// Heap headroom past the resident set, in clusters: room for prefetched
/// clusters and proxies before the pressure handler steps in.
constexpr int kHeadroomClusters = 4;
constexpr int kStores = 4;
constexpr size_t kReplicas = 2;
constexpr int kWarmTouches = 1000;
constexpr int kTouchesPerPass = 15000;
constexpr int kPollEvery = 50;  ///< touches between durability polls
/// Touches per throughput sample: ops_per_s is the median over chunks, so
/// a burst of interference on the host moves few samples.
constexpr int kChunkTouches = 500;
constexpr uint64_t kPollPeriodUs = 250'000;
constexpr double kJumpShare = 0.3;
constexpr double kWriteShare = 0.3;
/// Payload cache and RAM tier budgets (decompressed / compressed bytes):
/// together they hold part of the ~48 clusters swapped at any time.
/// --payload-cache-kib overrides the cache budget.
constexpr size_t kPayloadCacheBytes = 32 * 1024;
constexpr size_t kTierRamBytes = 12 * 1024;
constexpr size_t kTierFlashSlots = 96;
constexpr int kGcSamples = 9;
constexpr double kTracedSeconds = 3.0;
const DeviceId kDevice(1);

/// Walks `steps` raw next-links inside one swap-cluster.
Object* Walk(Runtime& rt, Object* node, int64_t steps) {
  for (int64_t i = 0; i < steps && node != nullptr; ++i) {
    const Value& next = rt.GetFieldAt(node, 0);
    node = next.is_ref() ? next.ref() : nullptr;
  }
  return node;
}

/// The application class: a list cell with read(i) / write(i, v), which
/// reach the i-th cell of the receiver's cluster by raw intra-cluster
/// links. write returns the value it replaced.
const ClassInfo* RegisterCellClass(Runtime& rt) {
  return *rt.types().Register(
      ClassBuilder("Cell")
          .Field("next", ValueKind::kRef)
          .Field("value", ValueKind::kInt)
          .PayloadBytes(64)
          .Method("read",
                  [](Runtime& r, Object* self,
                     std::vector<Value>& args) -> Result<Value> {
                    Object* cell = Walk(r, self, args[0].as_int());
                    if (cell == nullptr)
                      return obiswap::InvalidArgumentError("read past the cluster");
                    return r.GetFieldAt(cell, 1);
                  })
          .Method("write",
                  [](Runtime& r, Object* self,
                     std::vector<Value>& args) -> Result<Value> {
                    Object* cell = Walk(r, self, args[0].as_int());
                    if (cell == nullptr)
                      return obiswap::InvalidArgumentError("write past the cluster");
                    Value old = r.GetFieldAt(cell, 1);
                    OBISWAP_RETURN_IF_ERROR(r.SetFieldAt(cell, 1, args[1]));
                    return old;
                  }));
}

struct Touch {
  int cluster = 0;
  int offset = 0;
  bool write = false;
  int64_t value = 0;
};

/// The seeded touch stream: sequential runs through a cluster into the
/// next one, broken by skewed jumps (cluster rank ~ u^2 over a seeded
/// popularity order).
class TouchStream {
 public:
  explicit TouchStream(uint64_t seed) : rng_(seed), hot_(kClusters) {
    for (int i = 0; i < kClusters; ++i) hot_[i] = i;
    for (int i = kClusters - 1; i > 0; --i)
      std::swap(hot_[i], hot_[rng_.NextBelow(static_cast<uint64_t>(i) + 1)]);
    cluster_ = hot_[0];
  }

  Touch Next() {
    if (rng_.NextBool(kJumpShare)) {
      const double u = rng_.NextDouble();
      cluster_ = hot_[static_cast<int>(u * u * kClusters)];
      offset_ = static_cast<int>(rng_.NextBelow(kNodes));
    } else {
      offset_ += 1 + static_cast<int>(rng_.NextBelow(29));
      if (offset_ >= kNodes) {
        offset_ -= kNodes;
        cluster_ = (cluster_ + 1) % kClusters;
      }
    }
    Touch touch{cluster_, offset_, rng_.NextBool(kWriteShare), 0};
    if (touch.write) touch.value = rng_.NextInt(0, 1'000'000'000);
    return touch;
  }

 private:
  Rng rng_;
  std::vector<int> hot_;
  int cluster_ = 0;
  int offset_ = 0;
};

swap::SwappingManager::Options ManagerOptions(size_t cache_bytes) {
  swap::SwappingManager::Options options;
  options.codec = "lz77";
  options.wire_format = "binary";
  options.delta_swap_out = true;
  options.replication_factor = kReplicas;
  options.swap_in_cache_bytes = cache_bytes;
  options.hedged_fetch = true;
  return options;
}

obiswap::tier::TierManager::Options TierOptions() {
  obiswap::tier::TierManager::Options options;
  options.mode = obiswap::tier::TierMode::kAll;
  options.ram_bytes = kTierRamBytes;
  options.flash_slot_bytes = 1024;
  options.flash_slots = kTierFlashSlots;
  return options;
}

/// One device and its neighbourhood. Members are declared in dependency
/// order: the bus outlives the manager, the prefetcher and monitor die
/// first.
struct World {
  World(uint64_t seed, size_t cache_bytes)
      : network(seed),
        discovery(network),
        client(network, discovery, kDevice),
        health(&network.clock()),
        flash(kDevice, 32 * 1024 * 1024, network.clock()),
        journal(&flash),
        tiers(&flash, TierOptions()),
        rt(1),
        manager(rt, ManagerOptions(cache_bytes)) {
    network.AddDevice(kDevice);
    for (int s = 0; s < kStores; ++s) {
      const DeviceId id(static_cast<uint32_t>(100 + s));
      network.AddDevice(id);
      network.SetInRange(kDevice, id, true);
      stores.push_back(std::make_unique<net::StoreNode>(id, 64 * 1024 * 1024));
      discovery.Announce(stores.back().get());
    }
    // One neighbour sits on a quarter-speed, high-latency link.
    net::LinkParams slow;
    slow.bandwidth_bps = 175'000.0;
    slow.latency_us = 120'000;
    network.SetLinkParams(kDevice, stores.back()->device(), slow);

    client.AttachHealth(&health);
    manager.AttachStore(&client, &discovery);
    manager.AttachLocalStore(&flash);
    manager.AttachIntentJournal(&journal);
    manager.AttachTierManager(&tiers);
    manager.AttachBus(&bus);
    manager.AttachClock(&network.clock());
    manager.AttachHealth(&health);
    manager.InstallPressureHandler();
    monitor = std::make_unique<swap::DurabilityMonitor>(manager, discovery,
                                                        kDevice, bus);
    monitor->AttachHealth(&health);
    obiswap::prefetch::Prefetcher::Options prefetch;
    prefetch.mode = obiswap::prefetch::PrefetchMode::kFull;
    prefetcher = std::make_unique<obiswap::prefetch::Prefetcher>(
        rt, manager, bus, prefetch);
    prefetcher->AttachClock(&network.clock());

    BuildGraph(seed);
  }

  /// 64 chained clusters of 100 cells; global c<i> holds cluster i's head
  /// (through a swap-cluster-proxy, as any root reference is).
  void BuildGraph(uint64_t seed) {
    const ClassInfo* cell_cls = RegisterCellClass(rt);
    Rng values(seed ^ 0x5eed0fce11ull);
    LocalScope scope(rt.heap());
    Object** previous_tail = scope.Add(nullptr);
    for (int c = 0; c < kClusters; ++c) {
      const SwapClusterId id = manager.NewSwapCluster();
      clusters.push_back(id);
      shadow.emplace_back(kNodes);
      Object** head = scope.Add(nullptr);
      Object** tail = scope.Add(nullptr);
      for (int j = kNodes - 1; j >= 0; --j) {
        Object* cell = rt.New(cell_cls);
        OBISWAP_CHECK(manager.Place(cell, id).ok());
        const int64_t value = values.NextInt(0, 1'000'000'000);
        shadow[c][j] = value;
        OBISWAP_CHECK(rt.SetField(cell, "value", Value::Int(value)).ok());
        if (*head != nullptr)
          OBISWAP_CHECK(rt.SetField(cell, "next", Value::Ref(*head)).ok());
        if (*tail == nullptr) *tail = cell;
        *head = cell;
      }
      if (*previous_tail != nullptr) {
        OBISWAP_CHECK(
            rt.SetField(*previous_tail, "next", Value::Ref(*head)).ok());
      }
      *previous_tail = *tail;
      globals.push_back("c" + std::to_string(c));
      OBISWAP_CHECK(rt.SetGlobal(globals.back(), Value::Ref(*head)).ok());
    }
    // Swap out all but the resident quarter, then cap the heap at what
    // that quarter needs plus a little headroom.
    rt.heap().Collect();
    const size_t per_cluster = rt.heap().used_bytes() / kClusters;
    for (int i = 0; i < kClusters - kResidentClusters; ++i)
      OBISWAP_CHECK(manager.SwapOutVictim().ok());
    rt.heap().Collect();
    rt.heap().set_capacity_bytes(rt.heap().used_bytes() +
                                 kHeadroomClusters * per_cluster);
  }

  Object* Head(int cluster) { return rt.GetGlobal(globals[cluster])->ref(); }

  void Poll() {
    network.clock().Advance(kPollPeriodUs);
    monitor->Poll();
  }

  net::StoreNode* StoreFor(DeviceId device) {
    for (auto& store : stores)
      if (store->device() == device) return store.get();
    return nullptr;
  }

  net::Network network;
  net::Discovery discovery;
  std::vector<std::unique_ptr<net::StoreNode>> stores;
  net::StoreClient client;
  net::HealthTracker health;
  obiswap::persist::FlashStore flash;
  swap::IntentJournal journal;
  obiswap::tier::TierManager tiers;
  Runtime rt;
  obiswap::context::EventBus bus;
  swap::SwappingManager manager;
  std::unique_ptr<swap::DurabilityMonitor> monitor;
  std::unique_ptr<obiswap::prefetch::Prefetcher> prefetcher;

  std::vector<SwapClusterId> clusters;
  std::vector<std::string> globals;
  std::vector<std::vector<int64_t>> shadow;  ///< the bench's own writes
};

struct TouchResult {
  bool ok = true;       ///< the touch's call succeeded
  bool faulted = false;  ///< its cluster was swapped out before the touch
  double host_ns = 0.0;
  uint64_t stall_us = 0;  ///< virtual time the touch took
};

/// One touch. Returns false on a correctness failure (a value that does
/// not match the shadow); a failed call is reported in `out->ok`.
bool DoTouch(World& w, const Touch& t, SpanRecorder& spans, uint64_t op_id,
             TouchResult* out) {
  const SwapClusterId id = w.clusters[t.cluster];
  out->faulted = w.manager.StateOf(id) == swap::SwapState::kSwapped;
  std::vector<Value> args{Value::Int(t.offset)};
  if (t.write) args.push_back(Value::Int(t.value));
  const uint64_t v0 = w.network.clock().now_us();
  const double h0 = NowNs();
  Result<Value> result = obiswap::InternalError("touch not run");
  {
    ScopedSpan touch(spans, "touch", op_id);
    if (out->faulted) {
      ScopedSpan reclaim(spans, "SwapOutVictim", op_id);
      (void)w.manager.SwapOutVictim();  // the pressure handler backs it up
    }
    ScopedSpan invoke(spans, "Invoke", op_id);
    result = w.rt.Invoke(w.Head(t.cluster), t.write ? "write" : "read",
                         std::move(args));
  }
  out->host_ns = NowNs() - h0;
  out->stall_us = w.network.clock().now_us() - v0;
  out->ok = result.ok();
  if (!out->ok) return true;
  int64_t& expected = w.shadow[t.cluster][t.offset];
  if (!result->is_int() || result->as_int() != expected) {
    return Fail("device_swap touch of cluster " + std::to_string(t.cluster) +
                " cell " + std::to_string(t.offset) + " read " +
                (result->is_int() ? std::to_string(result->as_int())
                                  : std::string("a non-integer")) +
                ", the bench wrote " +
                std::to_string(expected));
  }
  if (t.write) expected = t.value;
  return true;
}

/// Every store key the bench can see must be a replica the registry
/// reports, and every registry replica must exist on its store.
bool AuditStoreKeys(World& w) {
  w.manager.FlushPendingDrops();
  if (w.manager.pending_drop_count() != 0)
    return Fail("device_swap left drops pending with every store reachable");
  std::set<std::pair<uint32_t, uint64_t>> expected, actual;
  auto add = [&](const std::vector<swap::ReplicaLocation>& replicas) {
    for (const swap::ReplicaLocation& r : replicas)
      if (r.device != kDevice) expected.insert({r.device.value(), r.key.value()});
  };
  for (SwapClusterId id : w.manager.registry().Ids()) {
    const swap::SwapClusterInfo* info = w.manager.registry().Find(id);
    if (info->state == swap::SwapState::kSwapped) {
      add(info->replicas);
      add(info->base_replicas);
    } else if (info->clean_image.has_value()) {
      add(info->clean_image->replicas);
      add(info->clean_image->base_replicas);
    }
  }
  for (const auto& store : w.stores)
    for (obiswap::SwapKey key : store->Keys())
      actual.insert({store->device().value(), key.value()});
  if (expected != actual) {
    size_t leaked = 0, missing = 0;
    for (const auto& k : actual) leaked += expected.count(k) == 0;
    for (const auto& k : expected) missing += actual.count(k) == 0;
    return Fail("device_swap store keys do not match the registry's replicas: " +
                std::to_string(leaked) + " leaked, " + std::to_string(missing) +
                " missing");
  }
  return true;
}

/// The full document of every cluster with a copy on a store, by cluster
/// id (a delta-swapped cluster's is its base with the delta applied), read
/// with StoreNode::Peek, which has no side effects on the simulation. With
/// `inputs`, the stored full-document frames are captured for the replays.
bool SnapshotDocs(World& w, std::map<uint32_t, std::string>* docs,
                  ReplayInputs* inputs) {
  auto first_remote = [&](const std::vector<swap::ReplicaLocation>& replicas)
      -> std::pair<const std::string*, const swap::ReplicaLocation*> {
    for (const swap::ReplicaLocation& r : replicas) {
      net::StoreNode* store = w.StoreFor(r.device);
      if (const std::string* stored =
              store == nullptr ? nullptr : store->Peek(r.key))
        return {stored, &r};
    }
    return {nullptr, nullptr};
  };
  for (SwapClusterId id : w.manager.registry().Ids()) {
    const swap::SwapClusterInfo* info = w.manager.registry().Find(id);
    const std::vector<swap::ReplicaLocation>* replicas = nullptr;
    const std::vector<swap::ReplicaLocation>* base = nullptr;
    if (info->state == swap::SwapState::kSwapped) {
      replicas = &info->replicas;
      base = &info->base_replicas;
    } else if (info->clean_image.has_value()) {
      replicas = &info->clean_image->replicas;
      base = &info->clean_image->base_replicas;
    } else {
      continue;
    }
    const auto [stored, where] = first_remote(*replicas);
    if (stored == nullptr) continue;  // only in a local tier so far
    Result<std::string> doc = obiswap::compress::FrameDecompress(*stored);
    if (!doc.ok()) return Fail("device_swap store holds a damaged payload");
    const std::string* full_frame = stored;
    const swap::ReplicaLocation* full_where = where;
    if (!base->empty()) {
      const auto [base_stored, base_where] = first_remote(*base);
      if (base_stored == nullptr) continue;
      Result<std::string> base_doc =
          obiswap::compress::FrameDecompress(*base_stored);
      Result<std::string> merged =
          base_doc.ok()
              ? obiswap::serialization::ApplyClusterDelta(*base_doc, *doc)
              : Result<std::string>(base_doc.status());
      if (!merged.ok())
        return Fail("device_swap store holds a damaged delta-swapped cluster");
      doc = std::move(merged);
      full_frame = base_stored;
      full_where = base_where;
    }
    (*docs)[id.value()] = std::move(*doc);
    if (inputs != nullptr &&
        !CapturePayload(id.value(), *full_frame, {full_where->key.value()},
                        inputs))
      return Fail("device_swap store holds a damaged cluster document");
  }
  return true;
}

/// Counters read before and after the timed phase.
struct Counters {
  swap::SwappingManager::Stats manager;
  net::StoreClient::Stats client;
  net::Network::Stats network;
  obiswap::persist::FlashStore::Stats flash;
  obiswap::tier::TierManager::Stats tiers;
  swap::IntentJournal::Stats journal;
  swap::DurabilityMonitor::Stats monitor;
  obiswap::runtime::Heap::Stats heap;

  static Counters Of(const World& w) {
    return {w.manager.stats(), w.client.stats(), w.network.stats(),
            w.flash.stats(),   w.tiers.stats(),  w.journal.stats(),
            w.monitor->stats(), w.rt.heap().stats()};
  }
};

struct Totals {
  std::vector<double> setup_s;
  std::vector<double> fault_ns;
  std::vector<double> chunk_rate;  ///< touches per host second, per chunk
  uint64_t touches = 0;
  uint64_t failed = 0;
  std::vector<bool> faulted_op;  ///< indexed by op id
  // First pass only: the simulated outcome, identical on every pass.
  std::vector<double> stall_us;
  Counters before, after;
  std::string digest;
  std::string input_digest;
  std::vector<double> gc_ns;
  double live_kib = 0.0;
  ReplayInputs replay;
};

bool RunPass(const RunOptions& options, int pass, bool capture,
             SpanRecorder& spans, Totals* totals, uint64_t* op_id) {
  const double setup_start = NowNs();
  World w(options.seed, options.payload_cache_kib > 0
                            ? options.payload_cache_kib * 1024
                            : kPayloadCacheBytes);
  TouchStream stream(options.seed);
  Digest input;
  SpanRecorder off(false);
  TouchResult result;
  for (int i = 0; i < kWarmTouches; ++i) {
    const Touch t = stream.Next();
    if (!DoTouch(w, t, off, 0, &result)) return false;
    if ((i + 1) % kPollEvery == 0) w.Poll();
  }
  totals->setup_s.push_back((NowNs() - setup_start) / 1e9);

  std::map<uint32_t, std::string> early_docs;
  if (capture && pass == 0 && !SnapshotDocs(w, &early_docs, nullptr))
    return false;
  const Counters before = Counters::Of(w);
  std::vector<double> stall_us;
  double chunk_start = NowNs();
  for (int i = 0; i < kTouchesPerPass; ++i) {
    const Touch t = stream.Next();
    input.Add(static_cast<uint64_t>(t.cluster) << 40 |
              static_cast<uint64_t>(t.offset) << 32 | (t.write ? 1u : 0u));
    input.Add(static_cast<uint64_t>(t.value));
    const uint64_t op = (*op_id)++;
    if (!DoTouch(w, t, spans, op, &result)) return false;
    ++totals->touches;
    if (!result.ok) ++totals->failed;
    if (totals->faulted_op.size() <= op) totals->faulted_op.resize(op + 1);
    totals->faulted_op[op] = result.faulted;
    if (result.faulted && result.ok) {
      totals->fault_ns.push_back(result.host_ns);
      stall_us.push_back(static_cast<double>(result.stall_us));
    }
    if ((i + 1) % kPollEvery == 0) w.Poll();
    if ((i + 1) % kChunkTouches == 0) {
      const double now = NowNs();
      totals->chunk_rate.push_back(kChunkTouches / ((now - chunk_start) / 1e9));
      chunk_start = now;
    }
  }
  const Counters after = Counters::Of(w);

  if (capture && pass == 0) {
    std::map<uint32_t, std::string> late_docs;
    if (!SnapshotDocs(w, &late_docs, &totals->replay)) return false;
    for (const auto& [id, doc] : late_docs) {
      auto early = early_docs.find(id);
      if (early != early_docs.end() && early->second != doc)
        totals->replay.pairs.push_back({early->second, doc});
    }
  }

  // Final sweep: read every cell back through the app's own path.
  for (int c = 0; c < kClusters; ++c) {
    for (int j = 0; j < kNodes; ++j) {
      if (!DoTouch(w, Touch{c, j, false, 0}, off, 0, &result)) return false;
      if (!result.ok) return Fail("device_swap final sweep could not read a cell");
    }
  }
  if (!AuditStoreKeys(w)) return false;

  Digest digest;
  digest.Add(w.network.clock().now_us());
  digest.Add(w.manager.StatsJson());
  for (const auto& [key, value] : w.tiers.StatsSnapshot()) {
    digest.Add(key);
    digest.Add(value);
  }
  digest.Add(w.network.stats().bytes_moved);
  digest.Add(w.flash.stats().bytes_written);
  if (pass == 0) {
    totals->stall_us = std::move(stall_us);
    totals->before = before;
    totals->after = after;
    totals->digest = digest.Hex();
    totals->input_digest = input.Hex();
    for (int i = 0; i < kGcSamples; ++i) {
      const double t0 = NowNs();
      w.rt.heap().Collect();
      totals->gc_ns.push_back(NowNs() - t0);
    }
    totals->live_kib =
        static_cast<double>(w.rt.heap().stats().last_live_bytes) / 1024.0;
  } else if (digest.Hex() != totals->digest) {
    return Fail("device_swap pass " + std::to_string(pass) +
                " simulated a different outcome than pass 0");
  }
  return true;
}

void ReportExact(const Totals& t, MetricSet& m) {
  const swap::SwappingManager::Stats& a = t.after.manager;
  const swap::SwappingManager::Stats& b = t.before.manager;
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double touches = static_cast<double>(kTouchesPerPass);
  const double swap_ins = d(a.swap_ins, b.swap_ins);
  const double swap_outs = d(a.swap_outs, b.swap_outs);
  const double clean_outs = d(a.clean_swap_outs, b.clean_swap_outs);
  const double polls = static_cast<double>(kTouchesPerPass / kPollEvery);

  m.Set("fault_stall_ms_p50", Percentile(t.stall_us, 50) / 1e3, "ms");
  m.Set("fault_stall_ms_p99", Percentile(t.stall_us, 99) / 1e3, "ms");
  m.Set("link_bytes_per_op",
        d(t.after.network.bytes_moved, t.before.network.bytes_moved) / touches,
        "B/op");
  m.Set("faults_per_op", static_cast<double>(t.stall_us.size()) / touches,
        "count");

  m.Set("runtime.gc_collections_per_op",
        d(t.after.heap.collections, t.before.heap.collections) / touches,
        "count");
  m.Set("swap.crossings_per_op",
        d(a.boundary_crossings, b.boundary_crossings) / touches, "count");
  m.Set("swap.proxies_created_per_op",
        d(a.proxies_created, b.proxies_created) / touches, "count");
  m.Set("swap.proxy_reuse_ratio",
        Ratio(d(a.proxies_reused, b.proxies_reused),
              d(a.proxies_reused, b.proxies_reused) +
                  d(a.proxies_created, b.proxies_created)),
        "ratio");
  m.Set("swap.clean_out_ratio", Ratio(clean_outs, swap_outs), "ratio");
  m.Set("swap.delta_out_ratio",
        Ratio(d(a.delta_swap_outs, b.delta_swap_outs), swap_outs), "ratio");
  m.Set("swap.delta_fallbacks", d(a.delta_fallbacks, b.delta_fallbacks),
        "count");
  m.Set("swap.bytes_out_per_dirty_out",
        Ratio(d(a.bytes_swapped_out, b.bytes_swapped_out),
              swap_outs - clean_outs),
        "B");
  m.Set("swap.cache_hit_ratio", Ratio(d(a.cache_hits, b.cache_hits), swap_ins),
        "ratio");
  m.Set("swap.journal_bytes_per_op",
        d(t.after.journal.persisted_bytes, t.before.journal.persisted_bytes) /
            touches,
        "B");
  m.Set("swap.durability_scan_per_poll",
        d(t.after.monitor.scan_replicas, t.before.monitor.scan_replicas) / polls,
        "count");
  m.Set("swap.re_replications", d(a.re_replications, b.re_replications),
        "count");
  const net::StoreClient::Stats& ca = t.after.client;
  const net::StoreClient::Stats& cb = t.before.client;
  m.Set("net.wire_attempts_per_call",
        Ratio(d(ca.calls, cb.calls) + d(ca.retries, cb.retries),
              d(ca.calls, cb.calls)),
        "ratio");
  m.Set("persist.flash_bytes_written_per_op",
        d(t.after.flash.bytes_written, t.before.flash.bytes_written) / touches,
        "B");
  m.Set("persist.flash_busy_ms_per_op",
        d(t.after.flash.busy_us, t.before.flash.busy_us) / 1e3 / touches, "ms");
  // Tier probes come from demand faults, prefetch staging and delta-base
  // lookups alike: each tier's hit ratio is over the probes that reached it.
  const obiswap::tier::TierManager::Stats& ta = t.after.tiers;
  const obiswap::tier::TierManager::Stats& tb = t.before.tiers;
  m.Set("tier.ram_hit_ratio",
        Ratio(d(ta.ram_hits, tb.ram_hits),
              d(ta.ram_hits, tb.ram_hits) + d(ta.ram_misses, tb.ram_misses)),
        "ratio");
  m.Set("tier.flash_hit_ratio",
        Ratio(d(ta.flash_hits, tb.flash_hits),
              d(ta.flash_hits, tb.flash_hits) +
                  d(ta.flash_misses, tb.flash_misses)),
        "ratio");
  m.Set("tier.remote_fault_share",
        Ratio(swap_ins - d(a.cache_hits, b.cache_hits) -
                  d(a.tier_swap_ins, b.tier_swap_ins),
              swap_ins),
        "ratio");
  const double speculative = d(a.prefetch_stages, b.prefetch_stages) +
                             d(a.prefetched_swap_ins, b.prefetched_swap_ins);
  m.Set("prefetch.hit_ratio",
        Ratio(d(a.prefetch_hits, b.prefetch_hits), speculative), "ratio");
  // Wasted speculative work, priced at the mean swapped payload size.
  const double mean_payload =
      Ratio(static_cast<double>(a.bytes_swapped_out), static_cast<double>(a.swap_outs));
  m.Set("prefetch.wasted_bytes_per_op",
        d(a.prefetch_wastes, b.prefetch_wastes) * mean_payload / touches, "B");
}

}  // namespace

bool RunDeviceSwap(const RunOptions& options, WorkloadOutcome* out) {
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
  m.Set("ops_per_s", Median(plain.chunk_rate), "ops/s");
  m.Set("op_host_us_p50", Median(plain.fault_ns) / 1e3, "us");
  m.Set("fault_host_us_p50", Median(plain.fault_ns) / 1e3, "us");
  m.Set("fault_host_us_p99", Percentile(plain.fault_ns, 99) / 1e3, "us");
  m.Set("failed_op_share",
        Ratio(static_cast<double>(plain.failed),
              static_cast<double>(plain.touches)),
        "ratio");
  ReportExact(plain, m);
  out->attempted = plain.touches;
  out->failed = plain.failed;
  out->digest = plain.digest;
  out->input_digest = plain.input_digest;

  if (options.trace) {
    SpanRecorder spans(true);
    Totals traced;
    // A few passes give thousands of faulting touches; more would only
    // grow the span buffer.
    if (RunPasses(std::min(options.seconds / 2, kTracedSeconds), 2,
                  [&](int pass) {
                    return RunPass(options, pass, /*capture=*/true, spans,
                                   &traced, &op_id);
                  }) < 0)
      return false;
    const double plain_rate = m.Get("ops_per_s");
    const double traced_rate = Median(traced.chunk_rate);
    m.Set("bench.trace_overhead_pct",
          100.0 * Ratio(plain_rate - traced_rate, plain_rate), "%");
    m.Set("runtime.gc_host_us_p50", Median(traced.gc_ns) / 1e3, "us");
    m.Set("runtime.live_kib", traced.live_kib, "KiB");

    // Self times of the touch's children, faulting touches only.
    std::vector<double> reclaim_ns = spans.SelfNs("SwapOutVictim");
    std::vector<double> fault_in_ns;
    for (const SpanRecorder::Span& span : spans.spans()) {
      if (span.op_id >= traced.faulted_op.size() ||
          !traced.faulted_op[span.op_id])
        continue;
      if (std::string_view(span.name) == "Invoke")
        fault_in_ns.push_back(span.end_ns - span.start_ns - span.child_ns);
    }
    m.Set("swap.reclaim_host_us_p50", Median(reclaim_ns) / 1e3, "us");
    m.Set("swap.fault_in_host_us_p50", Median(fault_in_ns) / 1e3, "us");

    ReplayInputs& replay = traced.replay;
    replay.register_classes = RegisterCellClass;
    if (replay.payloads.empty() || replay.pairs.empty())
      return Fail("device_swap captured no cluster documents to replay");
    if (!ReplaySerialization(replay, /*xml=*/false, m) ||
        !ReplayDeltas(replay, m) || !ReplayCompress(replay, m) ||
        !ReplayRpc(replay, m))
      return false;
    ReplayChecksums(replay, m);
    ReplayJournal(replay, m);

    // Share of a faulting touch's host time the (de)serializer accounts
    // for: replayed ns/object x objects (de)serialized in the timed
    // phase, over the timed phase's summed fault host time.
    const swap::SwappingManager::Stats& a = plain.after.manager;
    const swap::SwappingManager::Stats& b = plain.before.manager;
    const double encoded =
        static_cast<double>((a.swap_outs - b.swap_outs) -
                            (a.clean_swap_outs - b.clean_swap_outs)) *
        kNodes;
    const double decoded = static_cast<double>(a.swap_ins - b.swap_ins) * kNodes;
    double fault_total_ns = 0.0;
    size_t first_pass_faults = plain.stall_us.size();
    for (size_t i = 0; i < first_pass_faults && i < plain.fault_ns.size(); ++i)
      fault_total_ns += plain.fault_ns[i];
    m.Set("serialization.share_of_fault_host",
          Ratio(m.Get("serialization.binary_encode_ns_per_object") * encoded +
                    m.Get("serialization.binary_decode_ns_per_object") * decoded,
                fault_total_ns),
          "ratio");
    if (!options.trace_out.empty()) spans.Dump(options.trace_out, "device_swap", kDumpedSpans);
  }
  m.Set("peak_rss_mib", PeakRssKib() / 1024.0, "MiB");
  return true;
}

}  // namespace perfbench
