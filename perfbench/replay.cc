#include "replay.h"

#include <memory>
#include <unordered_map>

#include "common/checksum.h"
#include "compress/codec.h"
#include "fleet/placement.h"
#include "net/bridge.h"
#include "net/network.h"
#include "serialization/graph_binary.h"
#include "serialization/graph_xml.h"
#include "swap/intent_journal.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace perfbench {
namespace {

using obiswap::Result;
using obiswap::runtime::LocalScope;
using obiswap::runtime::Object;
using obiswap::runtime::Runtime;
using obiswap::serialization::ExternalRef;

/// Host time each throughput replay runs for, at least.
constexpr double kReplayNs = 30e6;

/// Results of replayed calls land here so the calls cannot be optimized
/// away.
volatile uint64_t g_sink = 0;

/// Calls `body` (one sweep over the inputs) until kReplayNs has passed;
/// returns ns per sweep.
template <typename Body>
double NsPerSweep(Body&& body) {
  body();  // warm caches and lazy statics
  int sweeps = 0;
  const double start = NowNs();
  do {
    body();
    ++sweeps;
  } while (NowNs() - start < kReplayNs);
  return (NowNs() - start) / sweeps;
}

/// Scratch runtime the decoders materialize into. External references
/// resolve to placeholder objects that describe themselves back, so a
/// decoded cluster re-encodes to the document it came from.
struct Scratch {
  explicit Scratch(const ReplayInputs& inputs) : scope(rt.heap()) {
    dummy_cls = inputs.register_classes(rt);
    shared_dummy = rt.New(dummy_cls);
    scope.Add(shared_dummy);
  }

  obiswap::serialization::DeserializeOptions options;

  /// Decode-timing resolver: every external ref gets the same placeholder.
  Result<Object*> ResolveShared(const ExternalRef&) { return shared_dummy; }

  /// Keeping resolver: one rooted placeholder per external ref, recorded
  /// so Describe() can hand the same ref back.
  Result<Object*> ResolveKept(const ExternalRef& ref) {
    Object* dummy = rt.New(dummy_cls);
    scope.Add(dummy);
    externals[dummy] = ref;
    return dummy;
  }
  Result<ExternalRef> Describe(Object* obj) {
    auto it = externals.find(obj);
    if (it == externals.end())
      return obiswap::InternalError("replay: unknown external object");
    return it->second;
  }

  Runtime rt{1};
  LocalScope scope;
  const obiswap::runtime::ClassInfo* dummy_cls = nullptr;
  Object* shared_dummy = nullptr;
  std::unordered_map<Object*, ExternalRef> externals;
};

}  // namespace

bool CapturePayload(uint32_t cluster_id, const std::string& stored,
                    std::vector<uint64_t> replica_keys, ReplayInputs* inputs) {
  Result<std::string> doc = obiswap::compress::FrameDecompress(stored);
  if (!doc.ok()) return false;
  CapturedPayload payload;
  payload.cluster_id = cluster_id;
  payload.stored = stored;
  payload.doc = std::move(*doc);
  payload.replica_keys = std::move(replica_keys);
  inputs->payloads.push_back(std::move(payload));
  return true;
}

bool ReplaySerialization(ReplayInputs& inputs, bool xml, MetricSet& m) {
  namespace ser = obiswap::serialization;
  const std::string prefix =
      std::string("serialization.") + (xml ? "xml" : "binary");
  Scratch scratch(inputs);
  auto resolve_shared = [&](const ExternalRef& ref) {
    return scratch.ResolveShared(ref);
  };

  // Decode: materialize every captured document.
  size_t objects = 0;
  size_t doc_bytes = 0;
  auto decode_all = [&] {
    for (const CapturedPayload& p : inputs.payloads) {
      Result<std::vector<Object*>> decoded =
          ser::DeserializeClusterAny(scratch.rt, p.doc, scratch.options,
                                     resolve_shared);
      OBISWAP_CHECK(decoded.ok());
    }
  };
  const uint64_t decode_allocs_before = AllocCount();
  decode_all();
  const uint64_t decode_allocs = AllocCount() - decode_allocs_before;
  const double decode_ns = NsPerSweep(decode_all);
  scratch.rt.heap().Collect();

  // Encode: keep one decoded copy of each document alive and re-encode it.
  std::vector<std::vector<Object*>> members;
  auto resolve_kept = [&](const ExternalRef& ref) {
    return scratch.ResolveKept(ref);
  };
  for (CapturedPayload& p : inputs.payloads) {
    Result<std::vector<Object*>> decoded = ser::DeserializeClusterAny(
        scratch.rt, p.doc, scratch.options, resolve_kept);
    if (!decoded.ok()) return Fail("replay: captured document does not decode");
    p.member_oids.clear();
    for (Object* obj : *decoded) {
      scratch.scope.Add(obj);
      p.member_oids.push_back(obj->oid().value());
    }
    objects += decoded->size();
    doc_bytes += p.doc.size();
    members.push_back(std::move(*decoded));
  }
  auto describe = [&](Object* obj) { return scratch.Describe(obj); };
  auto encode = [&](size_t i) {
    const uint32_t id = inputs.payloads[i].cluster_id;
    return xml ? ser::SerializeCluster(scratch.rt, id, members[i], describe)
               : ser::SerializeClusterBinary(scratch.rt, id, members[i],
                                             describe);
  };
  for (size_t i = 0; i < members.size(); ++i) {
    Result<ser::SerializedCluster> again = encode(i);
    if (!again.ok() || again->payload != inputs.payloads[i].doc)
      return Fail("replay: re-encoded cluster differs from the captured one");
  }
  const uint64_t encode_allocs_before = AllocCount();
  for (size_t i = 0; i < members.size(); ++i) OBISWAP_CHECK(encode(i).ok());
  const uint64_t encode_allocs = AllocCount() - encode_allocs_before;
  const double encode_ns = NsPerSweep([&] {
    for (size_t i = 0; i < members.size(); ++i) OBISWAP_CHECK(encode(i).ok());
  });

  const double n = static_cast<double>(objects);
  m.Set(prefix + "_encode_ns_per_object", Ratio(encode_ns, n), "ns");
  m.Set(prefix + "_decode_ns_per_object", Ratio(decode_ns, n), "ns");
  if (!xml) {
    m.Set("serialization.encode_allocs_per_object",
          Ratio(static_cast<double>(encode_allocs), n), "count");
    m.Set("serialization.decode_allocs_per_object",
          Ratio(static_cast<double>(decode_allocs), n), "count");
    m.Set("serialization.bytes_per_object",
          Ratio(static_cast<double>(doc_bytes), n), "B");
  }
  return true;
}

bool ReplayDeltas(const ReplayInputs& inputs, MetricSet& m) {
  namespace ser = obiswap::serialization;
  std::vector<std::string> deltas;
  for (const CapturedPair& pair : inputs.pairs) {
    Result<std::string> delta = ser::DiffClusterPayloads(pair.base, pair.fresh);
    if (!delta.ok()) return Fail("replay: captured documents do not diff");
    Result<std::string> merged = ser::ApplyClusterDelta(pair.base, *delta);
    if (!merged.ok() || *merged != pair.fresh)
      return Fail("replay: a delta does not reproduce its fresh document");
    deltas.push_back(std::move(*delta));
  }
  std::vector<double> apply_ns, diff_ns;
  const double start = NowNs();
  while (!inputs.pairs.empty() && NowNs() - start < kReplayNs) {
    for (size_t i = 0; i < inputs.pairs.size(); ++i) {
      const CapturedPair& pair = inputs.pairs[i];
      double t0 = NowNs();
      OBISWAP_CHECK(ser::DiffClusterPayloads(pair.base, pair.fresh).ok());
      diff_ns.push_back(NowNs() - t0);
      t0 = NowNs();
      OBISWAP_CHECK(ser::ApplyClusterDelta(pair.base, deltas[i]).ok());
      apply_ns.push_back(NowNs() - t0);
    }
  }
  m.Set("serialization.diff_us_p50", Median(diff_ns) / 1e3, "us");
  m.Set("serialization.apply_delta_us_p50", Median(apply_ns) / 1e3, "us");
  return true;
}

bool ReplayCompress(const ReplayInputs& inputs, MetricSet& m) {
  const obiswap::compress::Lz77Codec lz77;
  std::vector<std::string> compressed;
  double raw_bytes = 0.0, packed_bytes = 0.0;
  for (const CapturedPayload& p : inputs.payloads) {
    Result<std::string> packed = lz77.Compress(p.doc);
    if (!packed.ok()) return Fail("replay: lz77 rejected a captured document");
    Result<std::string> unpacked = lz77.Decompress(*packed);
    if (!unpacked.ok() || *unpacked != p.doc)
      return Fail("replay: lz77 round trip changed a captured document");
    raw_bytes += static_cast<double>(p.doc.size());
    packed_bytes += static_cast<double>(packed->size());
    compressed.push_back(std::move(*packed));
  }
  const double compress_ns = NsPerSweep([&] {
    for (const CapturedPayload& p : inputs.payloads)
      OBISWAP_CHECK(lz77.Compress(p.doc).ok());
  });
  const double decompress_ns = NsPerSweep([&] {
    for (const std::string& packed : compressed)
      OBISWAP_CHECK(lz77.Decompress(packed).ok());
  });
  m.Set("compress.lz77_compress_mb_s", Ratio(raw_bytes * 1e3, compress_ns),
        "MB/s");
  m.Set("compress.lz77_decompress_mb_s", Ratio(raw_bytes * 1e3, decompress_ns),
        "MB/s");
  m.Set("compress.ratio", Ratio(packed_bytes, raw_bytes), "ratio");
  return true;
}

void ReplayChecksums(const ReplayInputs& inputs, MetricSet& m) {
  double bytes = 0.0;
  for (const CapturedPayload& p : inputs.payloads)
    bytes += static_cast<double>(p.stored.size());
  const double adler_ns = NsPerSweep([&] {
    for (const CapturedPayload& p : inputs.payloads)
      g_sink = g_sink + obiswap::Adler32(p.stored);
  });
  const double crc_ns = NsPerSweep([&] {
    for (const CapturedPayload& p : inputs.payloads)
      g_sink = g_sink + obiswap::Crc32(p.stored);
  });
  m.Set("common.adler32_gb_s", Ratio(bytes, adler_ns), "GB/s");
  m.Set("common.crc32_gb_s", Ratio(bytes, crc_ns), "GB/s");
}

bool ReplayXmlText(const ReplayInputs& inputs, MetricSet& m) {
  namespace xml = obiswap::xml;
  std::vector<std::unique_ptr<xml::Node>> trees;
  double bytes = 0.0;
  for (const CapturedPayload& p : inputs.payloads) {
    Result<std::unique_ptr<xml::Node>> tree = xml::Parse(p.doc);
    if (!tree.ok()) return Fail("replay: captured XML document does not parse");
    bytes += static_cast<double>(p.doc.size());
    trees.push_back(std::move(*tree));
  }
  const double parse_ns = NsPerSweep([&] {
    for (const CapturedPayload& p : inputs.payloads)
      OBISWAP_CHECK(xml::Parse(p.doc).ok());
  });
  const double write_ns = NsPerSweep([&] {
    for (const auto& tree : trees) g_sink = g_sink + xml::Write(*tree).size();
  });
  m.Set("xml.parse_mb_s", Ratio(bytes * 1e3, parse_ns), "MB/s");
  m.Set("xml.write_mb_s", Ratio(bytes * 1e3, write_ns), "MB/s");
  return true;
}

bool ReplayRpc(const ReplayInputs& inputs, MetricSet& m) {
  namespace net = obiswap::net;
  net::Network network(1);
  net::Discovery discovery(network);
  const obiswap::DeviceId self(1), store_id(2);
  network.AddDevice(self);
  network.AddDevice(store_id);
  network.SetInRange(self, store_id, true);
  net::StoreNode store(store_id, size_t{1} << 30);
  discovery.Announce(&store);
  net::StoreClient client(network, discovery, self);

  std::vector<double> store_ns, fetch_ns;
  double payload_bytes = 0.0, wire_bytes = 0.0;
  uint64_t calls = 0, allocs = 0, next_key = 1;
  const double start = NowNs();
  while (store_ns.empty() || NowNs() - start < kReplayNs) {
    const uint64_t first_key = next_key;
    for (const CapturedPayload& p : inputs.payloads) {
      const uint64_t a0 = AllocCount();
      const uint64_t w0 = network.stats().bytes_moved;
      const double t0 = NowNs();
      const obiswap::Status stored =
          client.Store(store_id, obiswap::SwapKey(next_key++), p.stored);
      store_ns.push_back(NowNs() - t0);
      allocs += AllocCount() - a0;
      wire_bytes += static_cast<double>(network.stats().bytes_moved - w0);
      if (!stored.ok()) return Fail("replay: scratch store rejected a payload");
      payload_bytes += static_cast<double>(p.stored.size());
    }
    uint64_t key = first_key;
    for (const CapturedPayload& p : inputs.payloads) {
      const uint64_t a0 = AllocCount();
      const uint64_t w0 = network.stats().bytes_moved;
      const double t0 = NowNs();
      Result<std::string> fetched =
          client.Fetch(store_id, obiswap::SwapKey(key));
      fetch_ns.push_back(NowNs() - t0);
      allocs += AllocCount() - a0;
      wire_bytes += static_cast<double>(network.stats().bytes_moved - w0);
      if (!fetched.ok() || *fetched != p.stored)
        return Fail("replay: scratch fetch did not return the stored payload");
      payload_bytes += static_cast<double>(p.stored.size());
      OBISWAP_CHECK(client.Drop(store_id, obiswap::SwapKey(key++)).ok());
    }
    calls += 2 * inputs.payloads.size();
  }
  m.Set("net.rpc_store_host_us_p50", Median(store_ns) / 1e3, "us");
  m.Set("net.rpc_fetch_host_us_p50", Median(fetch_ns) / 1e3, "us");
  m.Set("net.rpc_allocs_per_call",
        Ratio(static_cast<double>(allocs), static_cast<double>(calls)),
        "count");
  // Request plus response envelope bytes of Store and Fetch per payload
  // byte carried (drops excluded).
  m.Set("net.wire_bytes_per_payload_byte", Ratio(wire_bytes, payload_bytes),
        "ratio");
  return true;
}

void ReplayJournal(const ReplayInputs& inputs, MetricSet& m) {
  namespace swap = obiswap::swap;
  std::vector<swap::JournalRecord> records;
  uint64_t seq = 1;
  for (const CapturedPayload& p : inputs.payloads) {
    swap::JournalRecord begin;
    begin.epoch = 1;
    begin.seq = seq;
    begin.type = swap::RecordType::kBegin;
    begin.op = swap::IntentOp::kSwapOut;
    begin.cluster = p.cluster_id;
    begin.swap_epoch = 1;
    begin.payload_checksum = obiswap::Adler32(p.doc);
    begin.member_oids = p.member_oids;
    records.push_back(begin);
    for (uint64_t key : p.replica_keys) {
      swap::JournalRecord intent;
      intent.epoch = 1;
      intent.seq = seq;
      intent.type = swap::RecordType::kReplicaIntent;
      intent.key = key;
      records.push_back(intent);
    }
    swap::JournalRecord commit;
    commit.epoch = 1;
    commit.seq = seq++;
    commit.type = swap::RecordType::kCommit;
    records.push_back(commit);
  }
  std::string image;
  const double ns = NsPerSweep([&] {
    image.clear();
    for (const swap::JournalRecord& record : records)
      swap::IntentJournal::EncodeRecord(record, &image);
  });
  m.Set("swap.journal_encode_ns_per_record",
        Ratio(ns, static_cast<double>(records.size())), "ns");
}

void ReplayAdmit(const obiswap::net::StoreNode::QueueOptions& queue,
                 uint64_t start_us, uint64_t end_us, size_t arrivals,
                 MetricSet& m) {
  namespace net = obiswap::net;
  const uint64_t span_us = end_us > start_us ? end_us - start_us : 1;
  const double ns = NsPerSweep([&] {
    net::StoreNode node(obiswap::DeviceId(1), size_t{1} << 30);
    node.ConfigureQueue(queue);
    for (size_t i = 0; i < arrivals; ++i) {
      const uint64_t now = start_us + span_us * i / arrivals;
      g_sink = g_sink + node.Admit(now, static_cast<net::Priority>(
                                            i % net::kPriorityClasses))
                            .queue_wait_us;
    }
  });
  m.Set("net.admit_ns", Ratio(ns, static_cast<double>(arrivals)), "ns");
}

void ReplayTargets(const std::vector<obiswap::DeviceId>& stores,
                   size_t devices, int clusters_per_device, size_t k,
                   MetricSet& m) {
  obiswap::fleet::PlacementDirectory directory;
  for (obiswap::DeviceId store : stores) directory.AddStore(store, 1.0);
  std::vector<uint64_t> keys;
  for (size_t d = 0; d < devices; ++d) {
    for (int c = 1; c <= clusters_per_device; ++c) {
      keys.push_back(obiswap::fleet::PlacementDirectory::KeyFor(
          obiswap::DeviceId(static_cast<uint32_t>(d + 1)),
          obiswap::SwapClusterId(static_cast<uint32_t>(c))));
    }
  }
  const double ns = NsPerSweep([&] {
    for (uint64_t key : keys)
      g_sink = g_sink + directory.Targets(key, k).front().value();
  });
  m.Set("fleet.targets_ns", Ratio(ns, static_cast<double>(keys.size())), "ns");
}

}  // namespace perfbench
