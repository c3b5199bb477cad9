// Per-layer replays for the traced run.
//
// Layers that only run inside SwapOut/SwapIn (serialization, compress,
// checksums, the journal encoder, the XML-RPC bridge) cannot be spanned
// from the benchmark's side of the public API, so the traced run calls
// their public functions directly on inputs captured from the same run:
// the cluster documents its stores hold at the end of the timed phase.
// No synthetic clusters or payloads are made. Each replay reports host
// ns/op or throughput, and allocations per call from the counting operator
// new in alloc_counter.cc.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "common/ids.h"
#include "net/store_node.h"
#include "runtime/runtime.h"

namespace perfbench {

/// One cluster document read back from a store (via StoreNode::Peek, which
/// has no side effects on the simulation).
struct CapturedPayload {
  uint32_t cluster_id = 0;
  std::string stored;  ///< the store's bytes (codec frame around the doc)
  std::string doc;     ///< the decompressed document (OSWB or XML)
  std::vector<uint64_t> replica_keys;
  std::vector<uint64_t> member_oids;  ///< filled by ReplaySerialization
};

/// Two OSWB documents of one cluster captured at different points of the
/// run (before and after the timed phase's writes).
struct CapturedPair {
  std::string base;
  std::string fresh;
};

struct ReplayInputs {
  std::vector<CapturedPayload> payloads;  ///< full documents
  std::vector<CapturedPair> pairs;
  /// Registers the application classes the documents name in the scratch
  /// runtime the decoders materialize into; returns the class used for
  /// the placeholders that external references resolve to.
  std::function<const obiswap::runtime::ClassInfo*(obiswap::runtime::Runtime&)>
      register_classes;
};

/// Decompresses a store frame holding a full cluster document and appends
/// it to `inputs`; false if the frame is damaged.
bool CapturePayload(uint32_t cluster_id, const std::string& stored,
                    std::vector<uint64_t> replica_keys, ReplayInputs* inputs);

/// serialization.binary_* (or xml_*) encode/decode ns and allocs per object,
/// and serialization.bytes_per_object; records each document's member oids
/// for ReplayJournal. Returns false if a re-encoded document differs from
/// the captured one.
bool ReplaySerialization(ReplayInputs& inputs, bool xml, MetricSet& m);
/// serialization.diff_us_p50 / apply_delta_us_p50 over the captured pairs;
/// returns false if a delta does not reproduce its fresh document.
bool ReplayDeltas(const ReplayInputs& inputs, MetricSet& m);
/// compress.lz77_* throughput and ratio over the documents.
bool ReplayCompress(const ReplayInputs& inputs, MetricSet& m);
/// common.adler32_gb_s / crc32_gb_s over the stored bytes.
void ReplayChecksums(const ReplayInputs& inputs, MetricSet& m);
/// xml.parse_mb_s / write_mb_s over XML documents.
bool ReplayXmlText(const ReplayInputs& inputs, MetricSet& m);
/// net.rpc_* host cost of StoreClient::Store/Fetch of the stored bytes
/// against a scratch store, and the envelope overhead.
bool ReplayRpc(const ReplayInputs& inputs, MetricSet& m);
/// swap.journal_encode_ns_per_record: IntentJournal::EncodeRecord over the
/// begin / replica-intent / commit records of the captured swap-outs.
void ReplayJournal(const ReplayInputs& inputs, MetricSet& m);
/// net.admit_ns: StoreNode::Admit under `queue`, arrivals spread over
/// [start_us, end_us) with the five priority classes interleaved.
void ReplayAdmit(const obiswap::net::StoreNode::QueueOptions& queue,
                 uint64_t start_us, uint64_t end_us, size_t arrivals,
                 MetricSet& m);
/// fleet.targets_ns: PlacementDirectory::Targets(k) over `stores` for the
/// placement keys of `devices` x `clusters_per_device`.
void ReplayTargets(const std::vector<obiswap::DeviceId>& stores,
                   size_t devices, int clusters_per_device, size_t k,
                   MetricSet& m);

}  // namespace perfbench
