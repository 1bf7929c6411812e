// Per-group accounting for the pub/sub subsystem. Every counter is a plain
// event count so per-group instances can be summed into a system aggregate;
// the derived ratios (delivery, amortised tree cost) are what the
// pubsub_throughput bench reports.
#pragma once

#include <cstdint>
#include <string>

#include "obs/histogram.hpp"

namespace geomcast::groups {

/// Application-level group identifier (opaque; hashed to a rendezvous
/// point in the coordinate space by the GroupManager).
using GroupId = std::uint64_t;

struct GroupStats {
  // Membership events accepted at the group root.
  std::uint64_t subscribes = 0;
  std::uint64_t unsubscribes = 0;

  // Publish pipeline.
  std::uint64_t publishes = 0;
  // Wave coalescing (PubSubConfig::batch_window > 0): publishes buffered
  // at the root and flushed as range waves, with the flush reason split
  // out (window timer expired vs. batch hit max_batch) so a workload's
  // burst profile is readable from the stats.
  std::uint64_t batched_publishes = 0;     // publishes that entered a buffer
  std::uint64_t batch_flushes_window = 0;  // waves flushed by the window timer
  std::uint64_t batch_flushes_full = 0;    // waves flushed by max_batch
  std::uint64_t batch_occupancy_sum = 0;   // publishes across flushed waves
  /// Buffered publishes dropped because the buffering root departed before
  /// the flush (they died at the root, like any publish to a dead root).
  std::uint64_t batch_publishes_lost = 0;
  /// Payload (+ack at QoS 1+) envelopes the coalesced waves avoided versus
  /// one wave per publish: (batch size - 1) x tree edges per flush.
  std::uint64_t envelopes_saved = 0;
  /// Sum over publishes of the subscriber count the tree spanned at
  /// publish time — the denominator of delivery_ratio().
  std::uint64_t expected_deliveries = 0;
  std::uint64_t deliveries = 0;
  /// Retransmission duplicates suppressed by the per-(group, seq) dedup:
  /// re-acked, but not re-delivered or re-forwarded. Always 0 under QoS 0 —
  /// waves traverse immutable tree snapshots with unique (group, seq), so
  /// only the QoS 1 retransmit layer can produce a second arrival.
  std::uint64_t duplicate_deliveries = 0;
  /// Per-hop payload messages down group trees (one per tree edge per
  /// publish; relays included, retransmissions counted separately below).
  std::uint64_t payload_messages = 0;
  // Per-hop reliability (QoS 1 and up): the pub/sub data plane runs its
  // kDeliverKind hops through multicast/reliable_hop.hpp.
  std::uint64_t ack_messages = 0;      // kDeliverAckKind envelopes sent
  std::uint64_t retransmissions = 0;   // payload copies resent on ack timeout
  std::uint64_t abandoned_hops = 0;    // hops whose retry budget ran out
  // End-to-end gap repair (QoS 2 only): subscriber-side sequence windows
  // detect missing per-group seqs and repair them from retained copies at
  // the tree parent, escalating ancestor-by-ancestor to the root.
  std::uint64_t gap_seqs_detected = 0;   // seqs a subscriber found missing
  std::uint64_t gap_seqs_repaired = 0;   // gaps filled by repair or late data
  std::uint64_t gap_seqs_abandoned = 0;  // gaps given up (window skipped on)
  std::uint64_t nacks_sent = 0;          // batched kNackKind envelopes
  std::uint64_t nacked_seqs = 0;         // missing seqs across those NACKs
  std::uint64_t nack_deferrals = 0;      // rounds deferred to in-flight QoS 1 recovery
  std::uint64_t repairs_served = 0;      // kRepairKind envelopes resent by responders
  std::uint64_t repair_misses = 0;       // kRepairMissKind replies (seq not retained)
  std::uint64_t repair_escalations = 0;  // gaps moved to a higher ancestor
  std::uint64_t retained_evictions = 0;  // retained waves displaced by newer ones
  /// Deliveries released below an already-advanced window head — possible
  /// only when a subscriber's very first waves race (see pubsub.hpp on the
  /// QoS 2 ordering guarantee).
  std::uint64_t pre_window_deliveries = 0;
  /// Sum over repaired gaps of (fill time - detection time), in simulated
  /// seconds; mean_gap_latency() is the derived per-gap figure.
  double gap_latency_total = 0.0;
  /// Routed control hops (subscribe/unsubscribe/publish envelopes on their
  /// way to the group root).
  std::uint64_t control_messages = 0;
  /// Control envelopes that greedy forwarding could not advance (stranded
  /// or next hop departed).
  std::uint64_t stranded_messages = 0;

  // Tree cache behaviour. Each maintenance verb keeps its own message
  // counter — graft descent decisions, prune cascade removals, and repair
  // reattach/splice traffic are different costs and must not conflate
  // (repair_messages once absorbed all three; see maintenance_per_publish
  // for the aggregate).
  std::uint64_t tree_builds = 0;     // full construction waves
  std::uint64_t build_messages = 0;  // construction requests across builds
  std::uint64_t cache_hits = 0;      // publishes served by an unchanged tree
  std::uint64_t grafts = 0;          // subscribers spliced into a cached tree
  std::uint64_t graft_messages = 0;  // zone-descent decisions across grafts
  std::uint64_t prunes = 0;          // subscribers cascaded out of a cached tree
  std::uint64_t prune_messages = 0;  // cascade removals across prunes
  std::uint64_t repairs = 0;         // departures mended in place
  std::uint64_t repair_messages = 0; // reattach/splice repair traffic only
  std::uint64_t repair_failures = 0; // orphans no rule could reattach
  std::uint64_t root_migrations = 0; // rendezvous root departed, successor picked
  // Warm root failover (PubSubConfig::warm_failover): the root streams its
  // bookkeeping to the group's replica so migration is a handoff, not a
  // rebuild. root_migrations still counts every migration; these make the
  // replication and handoff COST visible (the ROADMAP "migration cost
  // measured in envelopes" gate).
  std::uint64_t replica_sync_envelopes = 0;  // kReplicaSyncKind deltas sent
  std::uint64_t replica_sync_retries = 0;    // sync envelopes retransmitted
  /// Sync envelopes spent re-establishing replication after a promotion or
  /// replica death (full-state bootstrap to a fresh replica) — the
  /// per-migration handoff price, a subset of replica_sync_envelopes.
  std::uint64_t migration_envelopes = 0;
  std::uint64_t warm_promotions = 0;  // migrations inheriting replicated state
  /// Pending-batch publishes the promoted root adopted from the replica's
  /// copy instead of dropping as batch_publishes_lost.
  std::uint64_t pending_publishes_inherited = 0;
  // Root-driven session heartbeats (PubSubConfig::heartbeat_interval): idle
  // beacons carrying the highest flushed seq down the current tree.
  std::uint64_t heartbeats_sent = 0;  // beacon waves issued by group roots
  /// Gap seqs first revealed by a heartbeat horizon rather than later wave
  /// traffic — each one is the final-wave blind spot closing.
  std::uint64_t heartbeat_gap_detections = 0;
  /// Beacons that reached a subscriber with NO window state — the residual
  /// blind spot: a subscriber severed on the group's only wave never
  /// initialized a window, so the beacon cannot owe it history and stays
  /// silent. Nonzero here is the measurable trace of that silence.
  std::uint64_t heartbeat_blind_windows = 0;
  // Routed graft control plane: the zone descent above driven by real
  // kGraftRequestKind envelopes, one per hop, at QoS 1. graft_messages
  // still counts the descent decisions (the same count a root-local
  // descent takes at zero loss); these count the envelopes and the
  // failure handling the distribution adds.
  std::uint64_t graft_hops = 0;          // kGraftRequestKind envelopes sent
  std::uint64_t graft_retries = 0;       // graft control envelopes retransmitted
  std::uint64_t graft_aborts = 0;        // in-flight grafts given up (tree dirtied)
  std::uint64_t graft_resubscribes = 0;  // aborts that re-issued the subscribe
  // Graft prefix batching (PubSubConfig::graft_prefix_batch): same-instant
  // descent steps sharing a (from, to) hop coalesced into one carrier.
  std::uint64_t graft_prefix_batches = 0;  // kGraftBatchKind carriers sent
  std::uint64_t graft_prefix_merged = 0;   // descent steps that rode a carrier
  // Replica-sharded roots (GroupConfig::root_replicas > 1): the seq-lease
  // protocol among slot roots and the per-slot wave handoffs.
  std::uint64_t seq_lease_requests = 0;  // kSeqLeaseKind asks sent to the authority
  std::uint64_t seq_leases_granted = 0;  // dense ranges the authority assigned
  std::uint64_t seq_grants_lost = 0;     // grants whose requester died (seq holes)
  std::uint64_t shard_handoffs = 0;      // kShardWaveKind range handoffs sent
  std::uint64_t shard_waves = 0;         // shard-tree waves driven (all slots)
  // Publisher-side batching (PubSubConfig::publisher_batch_window): app
  // messages buffered at the publisher before one kPublishKind envelope.
  std::uint64_t publisher_batches = 0;           // publish envelopes flushed
  std::uint64_t publisher_batched_publishes = 0; // app messages that buffered
  std::uint64_t publisher_envelopes_saved = 0;   // publish envelopes avoided
  /// Subscribers a fresh build could not reach (a departed delegate walls
  /// off their slices) that the build-time rescue pass spliced back in via
  /// greedy routes (group_tree's rescue_stranded).
  std::uint64_t stranded_rescues = 0;
  /// Gauge (last build, after rescue): subscribers the construction still
  /// could not span — e.g. identifiers in degenerate position the
  /// open-zone recursion cannot reach, with no greedy route to the tree
  /// either. Nonzero means delivery_ratio() is measured against a smaller
  /// set than the membership.
  std::uint64_t stranded_subscribers = 0;

  // Latency distributions (simulated seconds; log-bucketed, mergeable —
  // see obs/histogram.hpp). Recorded unconditionally like every counter
  // above, so they are identical whether tracing is attached or not.
  /// Publish accepted at the root -> application-level delivery at a
  /// subscriber, one sample per delivery (QoS 2 samples are release time,
  /// matching the deliveries counter). The p99 here is the latency-aware-
  /// trees roadmap gate.
  obs::Histogram delivery_latency;
  /// Gap detected -> gap repaired (QoS 2 only); the distribution behind
  /// mean_gap_latency()'s single mean.
  obs::Histogram gap_repair_latency;
  /// Routed graft registered at the root -> subscriber attached
  /// (graft_begin to graft_finish; aborted grafts never sample).
  obs::Histogram graft_latency;

  /// Fraction of expected deliveries that arrived; 1 when nothing was
  /// published yet.
  [[nodiscard]] double delivery_ratio() const noexcept;
  /// Tree maintenance messages (builds + grafts + prunes + repairs) per
  /// publish; the "repair overhead" axis of the bench.
  [[nodiscard]] double maintenance_per_publish() const noexcept;
  /// Mean simulated seconds from gap detection to repair; 0 when no gap
  /// was repaired.
  [[nodiscard]] double mean_gap_latency() const noexcept;
  /// Mean publishes per flushed wave; 0 when nothing was coalesced.
  [[nodiscard]] double mean_batch_occupancy() const noexcept;

  GroupStats& operator+=(const GroupStats& other) noexcept;

  [[nodiscard]] std::string summary() const;
};

}  // namespace geomcast::groups
