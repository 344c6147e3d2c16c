//! The parameter-server wire protocol.
//!
//! Every inter-node interaction of NuPS and of the SSP/ESSP baseline is one
//! of these messages. They are encoded to bytes before crossing the
//! simulated network so the byte counters reflect real wire sizes
//! (Lapse/NuPS used ZeroMQ + protocol buffers; our framing overhead is
//! modelled in [`nups_sim::cost::WIRE_HEADER_BYTES`]).
//!
//! There is one access path: every pull, push and localize travels as a
//! batch message, and a single-key operation is a batch of one. Relocation
//! follows the Lapse 3-message protocol (Section 3.1.3):
//! `LocalizeBatchReq` to the home node, `ForwardLocalize` from home to the
//! current owner, `Transfer` from the owner to the requester. Remote
//! accesses are `PullBatchReq`/`PushBatchReq` with responses routed
//! directly to the requesting worker's reply port; a `hops` count records
//! forwarding so the requester can charge the correct virtual-time cost.

use bytes::{BufMut, Bytes, BytesMut};
use nups_sim::codec::{
    self, f32_slice_len, get_f32_vec, get_u16, get_u64, get_u8, put_f32_slice, CodecError,
    WireEncode,
};
use nups_sim::topology::{Addr, NodeId};

use crate::key::Key;

/// One batched (key, delta) update, as used by SSP flushes and broadcasts.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyUpdate {
    pub key: Key,
    pub delta: Vec<f32>,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Home tells the current owner to hand `key` over to `requester`.
    ForwardLocalize { key: Key, requester: NodeId },
    /// Ownership transfer carrying the parameter value.
    Transfer { key: Key, value: Vec<f32> },

    /// Read `keys`: one request per destination node, one entry per key
    /// (a single-key pull is a batch of one). The receiving server answers
    /// its locally-owned subset in a single [`Msg::PullBatchResp`], parks
    /// entries that are in flight (each answered by a one-entry response
    /// at install time), and forwards the remainder along the ownership
    /// chain — so replies to one request may arrive split across several
    /// messages.
    PullBatchReq { keys: Vec<Key>, reply_to: Addr, hops: u8 },
    /// The subset of a [`Msg::PullBatchReq`] one server answered. `hops`
    /// counts the chain this subset took, including this response, so the
    /// requester can price its wait.
    PullBatchResp { values: Vec<KeyUpdate>, hops: u8 },
    /// Additive updates, grouped like [`Msg::PullBatchReq`]; acks go to
    /// `reply_to`.
    PushBatchReq { updates: Vec<KeyUpdate>, reply_to: Addr, hops: u8 },
    /// Ack for the subset of a [`Msg::PushBatchReq`] applied at one node.
    PushBatchAck { keys: Vec<Key>, hops: u8 },
    /// Relocation intent: `requester` asks a home node for all of `keys`
    /// (each homed there) in one message.
    LocalizeBatchReq { keys: Vec<Key>, requester: NodeId },

    /// Technique migration, relocated → replicated: the owning node
    /// broadcasts the parameter's current value so every node can install
    /// a replica in `slot`. In-process deployments execute this at the
    /// synchronization rendezvous (priced as `n - 1` of these on the
    /// wire); per-node deployments send it for real, stamped with the
    /// [`Msg::AdaptPlan`] epoch it completes so receivers can order it
    /// against the plan stream.
    Promote { key: Key, epoch: u64, slot: u32, value: Vec<f32> },
    /// Technique migration, replicated → relocated: after the final delta
    /// all-reduce the coordinator announces the elected owner; replicas
    /// free their slot (the value is already everywhere, so the notice is
    /// small). Priced as `n - 1` of these.
    Demote { key: Key, owner: NodeId },

    /// Distributed replica synchronization (per-node deployments, where
    /// the in-process all-reduce is impossible): node `from` broadcasts
    /// the deltas it accumulated since its last sync. Each update carries
    /// the real parameter key (not a slot id) so receivers can re-route
    /// around concurrent technique migrations: a delta for a key that is
    /// no longer replicated here folds back through the relocation push
    /// path instead of hitting a reused slot. Applying is commutative and
    /// (for integer-valued deltas) exact, so replicas converge to the
    /// same bits regardless of arrival order.
    ///
    /// `epoch` is the replication *era* the batch was drained under: the
    /// [`Msg::AdaptPlan`] epoch that installed the sender's tenancy of
    /// these keys (zero for startup replicas or when adaptation is off),
    /// read under the same slot lock as the drain, so the tag is exact. A
    /// sender whose dirty slots span eras sends one message per era.
    /// Receivers match the era against their own slot before applying, so
    /// a stale delta that predates a demote/re-promote cycle is never
    /// applied to (or stashed for) the new era's replica — it is conserved
    /// once at the key's home and dropped everywhere else.
    ReplicaDeltas { from: NodeId, epoch: u64, updates: Vec<KeyUpdate> },
    /// Node `from` finished its workload and issued its final
    /// [`Msg::ReplicaDeltas`] broadcast. Sent to the *coordinator* on the
    /// same ordered channel as the deltas, so receiving it proves every
    /// delta from `from` has been applied there. The coordinator's
    /// quiescence barrier counts these.
    SyncFin { from: NodeId },
    /// Node `from`'s share of the final model: one entry per
    /// relocation-managed key its store owns. Sent to the coordinator's
    /// control port in response to [`Msg::Release`].
    ModelPart { from: NodeId, entries: Vec<KeyUpdate> },
    /// Coordinator → peers, after every node's [`Msg::SyncFin`] arrived:
    /// the cluster is quiescent — snapshot your store and answer with a
    /// [`Msg::ModelPart`], then tear down. `epoch` is the last
    /// [`Msg::AdaptPlan`] the coordinator issued (zero when adaptation is
    /// off); a peer answers only once its own adaptive state has caught
    /// up, so no migration is still tearing keys out of the snapshot.
    Release { epoch: u64 },
    /// Finalize fence, peer → every other peer's *server* port (adaptive
    /// per-node deployments). Sent right after node `from`'s final
    /// [`Msg::ReplicaDeltas`] broadcast on the same per-link FIFO
    /// channels, so receiving it proves every sync delta `from` ever
    /// broadcast has been folded here. Each node waits for `n - 1` fences
    /// (and for its own folds to be acknowledged) before declaring itself
    /// drained to the coordinator — the happens-before edge that keeps a
    /// late broadcast for a demoted key from landing after the home
    /// snapshotted its model part.
    FinFence { from: NodeId },

    /// Per-node deployments: a peer ships the accesses it recorded since
    /// its last report to the adaptation leader (node 0) as exact
    /// `(key, count)` pairs, one per key it touched
    /// ([`nups_sim::metrics::AccessWindow`]). The leader adds every report
    /// to its exact decayed per-key counts and re-scores from the merged
    /// global view.
    AccessReport { from: NodeId, counts: Vec<(Key, u64)> },
    /// Leader → everyone (including itself): the versioned migration plan
    /// of one adaptation round. Promotions carry the replica slot the
    /// leader assigned by simulating the free list, so every node's slot
    /// table stays aligned without further coordination; demotions free
    /// their slots in plan order. Plans apply in epoch order on each
    /// node's server loop.
    AdaptPlan { epoch: u64, promotions: Vec<(Key, u32)>, demotions: Vec<Key> },
    /// Peer → leader: plan `epoch` is fully applied here — demotions
    /// executed, every announced replica installed, no buffered installs
    /// and no unacknowledged demotion residue. The leader's finalize
    /// barrier releases the cluster only after every node acknowledged the
    /// last issued plan, so no migration traffic is in flight when model
    /// parts are snapshotted.
    PlanAck { from: NodeId, epoch: u64 },

    /// SSP/ESSP: synchronous replica refresh request.
    SspPullReq { key: Key, reply_to: Addr },
    /// SSP/ESSP: refresh response.
    SspPullResp { key: Key, value: Vec<f32> },
    /// SSP/ESSP: a worker's accumulated updates, flushed at a clock advance.
    /// `from` lets the owner skip echoing updates back to their origin.
    SspFlush { from: NodeId, updates: Vec<KeyUpdate> },
    /// ESSP: eager propagation of fresh deltas to a subscriber node.
    SspBroadcast { updates: Vec<KeyUpdate> },
    /// ESSP: node `from` subscribes to eager maintenance of `keys`.
    SspSubscribe { from: NodeId, keys: Vec<Key> },
}

mod tag {
    // Tags 1-5 are retired (protocol version 1's single-key PullReq,
    // PushReq, PullResp, PushAck, LocalizeReq), and so is 13 (an SSP
    // server's `Stop`: a serve guard ends a service). Never reuse them: a
    // stray old payload must decode to `UnknownTag`, not to a live message.
    pub const FORWARD_LOCALIZE: u8 = 6;
    pub const TRANSFER: u8 = 7;
    pub const SSP_PULL_REQ: u8 = 8;
    pub const SSP_PULL_RESP: u8 = 9;
    pub const SSP_FLUSH: u8 = 10;
    pub const SSP_BROADCAST: u8 = 11;
    pub const SSP_SUBSCRIBE: u8 = 12;
    pub const PULL_BATCH_REQ: u8 = 14;
    pub const PULL_BATCH_RESP: u8 = 15;
    pub const PUSH_BATCH_REQ: u8 = 16;
    pub const PUSH_BATCH_ACK: u8 = 17;
    pub const LOCALIZE_BATCH_REQ: u8 = 18;
    pub const PROMOTE: u8 = 19;
    pub const DEMOTE: u8 = 20;
    pub const REPLICA_DELTAS: u8 = 21;
    pub const SYNC_FIN: u8 = 22;
    pub const MODEL_PART: u8 = 23;
    pub const RELEASE: u8 = 24;
    pub const ACCESS_REPORT: u8 = 25;
    pub const ADAPT_PLAN: u8 = 26;
    pub const PLAN_ACK: u8 = 27;
    pub const FIN_FENCE: u8 = 28;
}

const ADDR_LEN: usize = 4;

fn put_addr(buf: &mut BytesMut, a: Addr) {
    buf.put_u16_le(a.node.0);
    buf.put_u16_le(a.port);
}

fn get_addr(buf: &mut Bytes) -> Result<Addr, CodecError> {
    let node = NodeId(get_u16(buf)?);
    let port = get_u16(buf)?;
    Ok(Addr { node, port })
}

fn updates_len(updates: &[KeyUpdate]) -> usize {
    4 + updates.iter().map(|u| 8 + f32_slice_len(&u.delta)).sum::<usize>()
}

fn put_updates(buf: &mut BytesMut, updates: &[KeyUpdate]) {
    buf.put_u32_le(updates.len() as u32);
    for u in updates {
        buf.put_u64_le(u.key);
        put_f32_slice(buf, &u.delta);
    }
}

/// Wire sizes of the request messages a forwarding chain repeats. A
/// requester that receives a response with `hops > 2` never saw the
/// intermediate forwards, but it knows they carried (a superset of) the
/// answered entries — these helpers let it price the chain it can
/// reconstruct. Each is asserted against `encoded_len` in the tests below.
impl Msg {
    /// Encoded size of a [`Msg::PullBatchReq`] over `n_keys` keys.
    pub fn pull_batch_req_len(n_keys: usize) -> usize {
        1 + 4 + 8 * n_keys + ADDR_LEN + 1
    }

    /// Encoded size of a [`Msg::PushBatchReq`] over `n_keys` deltas of
    /// `value_len` floats each.
    pub fn push_batch_req_len(n_keys: usize, value_len: usize) -> usize {
        1 + 4 + n_keys * (8 + f32_slice_len_for(value_len)) + ADDR_LEN + 1
    }
}

fn f32_slice_len_for(n: usize) -> usize {
    4 + 4 * n
}

impl Msg {
    /// The reply to one pull that was parked on an in-flight entry and is
    /// answered on its own at install time: a [`Msg::PullBatchResp`] of
    /// one. `hops` is the parked request's count; the reply is one more.
    pub(crate) fn pull_reply(key: Key, value: Vec<f32>, hops: u8) -> Msg {
        Msg::PullBatchResp {
            values: vec![KeyUpdate { key, delta: value }],
            hops: hops.saturating_add(1),
        }
    }

    /// The ack for one parked push: a [`Msg::PushBatchAck`] of one.
    pub(crate) fn push_reply(key: Key, hops: u8) -> Msg {
        Msg::PushBatchAck { keys: vec![key], hops: hops.saturating_add(1) }
    }
}

fn get_updates(buf: &mut Bytes) -> Result<Vec<KeyUpdate>, CodecError> {
    let n = codec::get_u32(buf)? as u64;
    // Each update occupies at least 12 bytes (key + length prefix): a
    // hostile length field must fail before any allocation happens.
    if n.saturating_mul(12) > buf.len() as u64 {
        return Err(CodecError::Truncated { needed: (n * 12) as usize, remaining: buf.len() });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = get_u64(buf)?;
        let delta = get_f32_vec(buf)?;
        out.push(KeyUpdate { key, delta });
    }
    Ok(out)
}

/// Plan promotions travel as a `u32` count followed by fixed 12-byte
/// `(key, slot)` entries.
fn pairs_len(n: usize) -> usize {
    4 + 12 * n
}

/// An access report's `(key, count)` pairs: a `u32` count followed by fixed
/// 16-byte entries.
fn counts_len(n: usize) -> usize {
    4 + 16 * n
}

fn put_counts(buf: &mut BytesMut, counts: &[(Key, u64)]) {
    buf.put_u32_le(counts.len() as u32);
    for &(key, count) in counts {
        buf.put_u64_le(key);
        buf.put_u64_le(count);
    }
}

fn get_counts(buf: &mut Bytes) -> Result<Vec<(Key, u64)>, CodecError> {
    let n = codec::get_u32(buf)? as u64;
    if n.saturating_mul(16) > buf.len() as u64 {
        return Err(CodecError::Truncated { needed: (n * 16) as usize, remaining: buf.len() });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = get_u64(buf)?;
        let count = get_u64(buf)?;
        out.push((key, count));
    }
    Ok(out)
}

fn put_promotions(buf: &mut BytesMut, promotions: &[(Key, u32)]) {
    buf.put_u32_le(promotions.len() as u32);
    for &(key, slot) in promotions {
        buf.put_u64_le(key);
        buf.put_u32_le(slot);
    }
}

fn get_promotions(buf: &mut Bytes) -> Result<Vec<(Key, u32)>, CodecError> {
    let n = codec::get_u32(buf)? as u64;
    if n.saturating_mul(12) > buf.len() as u64 {
        return Err(CodecError::Truncated { needed: (n * 12) as usize, remaining: buf.len() });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = get_u64(buf)?;
        let slot = codec::get_u32(buf)?;
        out.push((key, slot));
    }
    Ok(out)
}

impl WireEncode for Msg {
    fn encoded_len(&self) -> usize {
        1 + match self {
            Msg::ForwardLocalize { .. } => 8 + 2,
            Msg::Transfer { value, .. } => 8 + f32_slice_len(value),
            Msg::SspPullReq { .. } => 8 + ADDR_LEN,
            Msg::SspPullResp { value, .. } => 8 + f32_slice_len(value),
            Msg::SspFlush { updates, .. } => 2 + updates_len(updates),
            Msg::SspBroadcast { updates } => updates_len(updates),
            Msg::SspSubscribe { keys, .. } => 2 + codec::u64_slice_len(keys),
            Msg::PullBatchReq { keys, .. } => codec::u64_slice_len(keys) + ADDR_LEN + 1,
            Msg::PullBatchResp { values, .. } => updates_len(values) + 1,
            Msg::PushBatchReq { updates, .. } => updates_len(updates) + ADDR_LEN + 1,
            Msg::PushBatchAck { keys, .. } => codec::u64_slice_len(keys) + 1,
            Msg::LocalizeBatchReq { keys, .. } => codec::u64_slice_len(keys) + 2,
            Msg::Promote { value, .. } => 8 + 8 + 4 + f32_slice_len(value),
            Msg::Demote { .. } => 8 + 2,
            Msg::ReplicaDeltas { updates, .. } => 2 + 8 + updates_len(updates),
            Msg::SyncFin { .. } => 2,
            Msg::FinFence { .. } => 2,
            Msg::ModelPart { entries, .. } => 2 + updates_len(entries),
            Msg::Release { .. } => 8,
            Msg::AccessReport { counts, .. } => 2 + counts_len(counts.len()),
            Msg::AdaptPlan { promotions, demotions, .. } => {
                8 + pairs_len(promotions.len()) + codec::u64_slice_len(demotions)
            }
            Msg::PlanAck { .. } => 2 + 8,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Msg::ForwardLocalize { key, requester } => {
                buf.put_u8(tag::FORWARD_LOCALIZE);
                buf.put_u64_le(*key);
                buf.put_u16_le(requester.0);
            }
            Msg::Transfer { key, value } => {
                buf.put_u8(tag::TRANSFER);
                buf.put_u64_le(*key);
                put_f32_slice(buf, value);
            }
            Msg::SspPullReq { key, reply_to } => {
                buf.put_u8(tag::SSP_PULL_REQ);
                buf.put_u64_le(*key);
                put_addr(buf, *reply_to);
            }
            Msg::SspPullResp { key, value } => {
                buf.put_u8(tag::SSP_PULL_RESP);
                buf.put_u64_le(*key);
                put_f32_slice(buf, value);
            }
            Msg::SspFlush { from, updates } => {
                buf.put_u8(tag::SSP_FLUSH);
                buf.put_u16_le(from.0);
                put_updates(buf, updates);
            }
            Msg::SspBroadcast { updates } => {
                buf.put_u8(tag::SSP_BROADCAST);
                put_updates(buf, updates);
            }
            Msg::SspSubscribe { from, keys } => {
                buf.put_u8(tag::SSP_SUBSCRIBE);
                buf.put_u16_le(from.0);
                codec::put_u64_slice(buf, keys);
            }
            Msg::PullBatchReq { keys, reply_to, hops } => {
                buf.put_u8(tag::PULL_BATCH_REQ);
                codec::put_u64_slice(buf, keys);
                put_addr(buf, *reply_to);
                buf.put_u8(*hops);
            }
            Msg::PullBatchResp { values, hops } => {
                buf.put_u8(tag::PULL_BATCH_RESP);
                put_updates(buf, values);
                buf.put_u8(*hops);
            }
            Msg::PushBatchReq { updates, reply_to, hops } => {
                buf.put_u8(tag::PUSH_BATCH_REQ);
                put_updates(buf, updates);
                put_addr(buf, *reply_to);
                buf.put_u8(*hops);
            }
            Msg::PushBatchAck { keys, hops } => {
                buf.put_u8(tag::PUSH_BATCH_ACK);
                codec::put_u64_slice(buf, keys);
                buf.put_u8(*hops);
            }
            Msg::LocalizeBatchReq { keys, requester } => {
                buf.put_u8(tag::LOCALIZE_BATCH_REQ);
                codec::put_u64_slice(buf, keys);
                buf.put_u16_le(requester.0);
            }
            Msg::Promote { key, epoch, slot, value } => {
                buf.put_u8(tag::PROMOTE);
                buf.put_u64_le(*key);
                buf.put_u64_le(*epoch);
                buf.put_u32_le(*slot);
                put_f32_slice(buf, value);
            }
            Msg::Demote { key, owner } => {
                buf.put_u8(tag::DEMOTE);
                buf.put_u64_le(*key);
                buf.put_u16_le(owner.0);
            }
            Msg::ReplicaDeltas { from, epoch, updates } => {
                buf.put_u8(tag::REPLICA_DELTAS);
                buf.put_u16_le(from.0);
                buf.put_u64_le(*epoch);
                put_updates(buf, updates);
            }
            Msg::SyncFin { from } => {
                buf.put_u8(tag::SYNC_FIN);
                buf.put_u16_le(from.0);
            }
            Msg::FinFence { from } => {
                buf.put_u8(tag::FIN_FENCE);
                buf.put_u16_le(from.0);
            }
            Msg::ModelPart { from, entries } => {
                buf.put_u8(tag::MODEL_PART);
                buf.put_u16_le(from.0);
                put_updates(buf, entries);
            }
            Msg::Release { epoch } => {
                buf.put_u8(tag::RELEASE);
                buf.put_u64_le(*epoch);
            }
            Msg::AccessReport { from, counts } => {
                buf.put_u8(tag::ACCESS_REPORT);
                buf.put_u16_le(from.0);
                put_counts(buf, counts);
            }
            Msg::AdaptPlan { epoch, promotions, demotions } => {
                buf.put_u8(tag::ADAPT_PLAN);
                buf.put_u64_le(*epoch);
                put_promotions(buf, promotions);
                codec::put_u64_slice(buf, demotions);
            }
            Msg::PlanAck { from, epoch } => {
                buf.put_u8(tag::PLAN_ACK);
                buf.put_u16_le(from.0);
                buf.put_u64_le(*epoch);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Msg, CodecError> {
        let t = get_u8(buf)?;
        Ok(match t {
            tag::FORWARD_LOCALIZE => {
                Msg::ForwardLocalize { key: get_u64(buf)?, requester: NodeId(get_u16(buf)?) }
            }
            tag::TRANSFER => Msg::Transfer { key: get_u64(buf)?, value: get_f32_vec(buf)? },
            tag::SSP_PULL_REQ => Msg::SspPullReq { key: get_u64(buf)?, reply_to: get_addr(buf)? },
            tag::SSP_PULL_RESP => Msg::SspPullResp { key: get_u64(buf)?, value: get_f32_vec(buf)? },
            tag::SSP_FLUSH => {
                Msg::SspFlush { from: NodeId(get_u16(buf)?), updates: get_updates(buf)? }
            }
            tag::SSP_BROADCAST => Msg::SspBroadcast { updates: get_updates(buf)? },
            tag::SSP_SUBSCRIBE => {
                Msg::SspSubscribe { from: NodeId(get_u16(buf)?), keys: codec::get_u64_vec(buf)? }
            }
            tag::PULL_BATCH_REQ => Msg::PullBatchReq {
                keys: codec::get_u64_vec(buf)?,
                reply_to: get_addr(buf)?,
                hops: get_u8(buf)?,
            },
            tag::PULL_BATCH_RESP => {
                Msg::PullBatchResp { values: get_updates(buf)?, hops: get_u8(buf)? }
            }
            tag::PUSH_BATCH_REQ => Msg::PushBatchReq {
                updates: get_updates(buf)?,
                reply_to: get_addr(buf)?,
                hops: get_u8(buf)?,
            },
            tag::PUSH_BATCH_ACK => {
                Msg::PushBatchAck { keys: codec::get_u64_vec(buf)?, hops: get_u8(buf)? }
            }
            tag::LOCALIZE_BATCH_REQ => Msg::LocalizeBatchReq {
                keys: codec::get_u64_vec(buf)?,
                requester: NodeId(get_u16(buf)?),
            },
            tag::PROMOTE => Msg::Promote {
                key: get_u64(buf)?,
                epoch: get_u64(buf)?,
                slot: codec::get_u32(buf)?,
                value: get_f32_vec(buf)?,
            },
            tag::DEMOTE => Msg::Demote { key: get_u64(buf)?, owner: NodeId(get_u16(buf)?) },
            tag::REPLICA_DELTAS => Msg::ReplicaDeltas {
                from: NodeId(get_u16(buf)?),
                epoch: get_u64(buf)?,
                updates: get_updates(buf)?,
            },
            tag::SYNC_FIN => Msg::SyncFin { from: NodeId(get_u16(buf)?) },
            tag::FIN_FENCE => Msg::FinFence { from: NodeId(get_u16(buf)?) },
            tag::MODEL_PART => {
                Msg::ModelPart { from: NodeId(get_u16(buf)?), entries: get_updates(buf)? }
            }
            tag::RELEASE => Msg::Release { epoch: get_u64(buf)? },
            tag::ACCESS_REPORT => {
                Msg::AccessReport { from: NodeId(get_u16(buf)?), counts: get_counts(buf)? }
            }
            tag::ADAPT_PLAN => Msg::AdaptPlan {
                epoch: get_u64(buf)?,
                promotions: get_promotions(buf)?,
                demotions: codec::get_u64_vec(buf)?,
            },
            tag::PLAN_ACK => Msg::PlanAck { from: NodeId(get_u16(buf)?), epoch: get_u64(buf)? },
            other => return Err(CodecError::UnknownTag(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(m: Msg) {
        let mut b = m.to_bytes();
        assert_eq!(b.len(), m.encoded_len(), "encoded_len mismatch for {m:?}");
        let back = Msg::decode(&mut b).unwrap();
        assert_eq!(back, m);
        assert!(b.is_empty());
    }

    #[test]
    fn roundtrip_every_variant() {
        let addr = Addr::worker(NodeId(3), 1);
        roundtrip(Msg::ForwardLocalize { key: 5, requester: NodeId(1) });
        roundtrip(Msg::Transfer { key: 5, value: vec![] });
        roundtrip(Msg::SspPullReq { key: 4, reply_to: addr });
        roundtrip(Msg::SspPullResp { key: 4, value: vec![9.0] });
        roundtrip(Msg::SspFlush {
            from: NodeId(2),
            updates: vec![
                KeyUpdate { key: 1, delta: vec![0.5] },
                KeyUpdate { key: 2, delta: vec![] },
            ],
        });
        roundtrip(Msg::SspBroadcast { updates: vec![] });
        roundtrip(Msg::SspSubscribe { from: NodeId(0), keys: vec![1, 2, 3] });
        roundtrip(Msg::PullBatchReq { keys: vec![1, 5, 9], reply_to: addr, hops: 1 });
        roundtrip(Msg::PullBatchResp {
            values: vec![
                KeyUpdate { key: 1, delta: vec![0.5, 1.5] },
                KeyUpdate { key: 5, delta: vec![] },
            ],
            hops: 2,
        });
        roundtrip(Msg::PushBatchReq {
            updates: vec![KeyUpdate { key: 7, delta: vec![-1.0] }],
            reply_to: addr,
            hops: 3,
        });
        roundtrip(Msg::PushBatchAck { keys: vec![7, 8], hops: 2 });
        roundtrip(Msg::LocalizeBatchReq { keys: vec![], requester: NodeId(2) });
        roundtrip(Msg::LocalizeBatchReq { keys: vec![3, 4, 5], requester: NodeId(2) });
        roundtrip(Msg::Promote { key: 11, epoch: 4, slot: 3, value: vec![1.5, -0.5] });
        roundtrip(Msg::Promote { key: 0, epoch: 0, slot: 0, value: vec![] });
        roundtrip(Msg::Demote { key: 11, owner: NodeId(4) });
        roundtrip(Msg::ReplicaDeltas {
            from: NodeId(2),
            epoch: 5,
            updates: vec![KeyUpdate { key: 0, delta: vec![2.0, -1.0] }],
        });
        roundtrip(Msg::ReplicaDeltas { from: NodeId(0), epoch: 0, updates: vec![] });
        roundtrip(Msg::SyncFin { from: NodeId(7) });
        roundtrip(Msg::FinFence { from: NodeId(0) });
        roundtrip(Msg::FinFence { from: NodeId(3) });
        roundtrip(Msg::ModelPart {
            from: NodeId(1),
            entries: vec![
                KeyUpdate { key: 3, delta: vec![1.0] },
                KeyUpdate { key: 9, delta: vec![] },
            ],
        });
        roundtrip(Msg::Release { epoch: 0 });
        roundtrip(Msg::Release { epoch: 9 });
        roundtrip(Msg::AccessReport { from: NodeId(3), counts: vec![] });
        roundtrip(Msg::AccessReport {
            from: NodeId(1),
            counts: vec![(0, 7), (262_143, 35), (u64::MAX, u64::MAX)],
        });
        roundtrip(Msg::AdaptPlan { epoch: 1, promotions: vec![], demotions: vec![] });
        roundtrip(Msg::AdaptPlan {
            epoch: 7,
            promotions: vec![(3, 0), (99, 2)],
            demotions: vec![5, 6],
        });
        roundtrip(Msg::PlanAck { from: NodeId(0), epoch: 0 });
        roundtrip(Msg::PlanAck { from: NodeId(5), epoch: 12 });
    }

    #[test]
    fn migration_message_sizes_are_honest() {
        // Promotion carries the full value (it is a broadcast of state);
        // demotion is a small notice — the asymmetry the adaptive manager's
        // cost accounting depends on.
        let promote = Msg::Promote { key: 1, epoch: 2, slot: 0, value: vec![0.0; 100] };
        assert_eq!(promote.encoded_len(), 1 + 8 + 8 + 4 + 4 + 400);
        let demote = Msg::Demote { key: 1, owner: NodeId(0) };
        assert_eq!(demote.encoded_len(), 1 + 8 + 2);
        assert!(demote.encoded_len() * 10 < promote.encoded_len());
    }

    #[test]
    fn adaptation_message_sizes_are_honest() {
        // The access report is the dominant recurring adaptation message;
        // its size must track the keys the peer touched — 16 bytes each —
        // not the key space.
        let report = Msg::AccessReport { from: NodeId(1), counts: vec![(1, 5), (2, 5), (9, 10)] };
        assert_eq!(report.encoded_len(), 1 + 2 + (4 + 3 * 16));
        // A count field claiming more pairs than the frame holds fails
        // before anything is allocated for them.
        let b = report.to_bytes();
        let mut short = Bytes::from(b[..b.len() - 1].to_vec());
        assert!(matches!(Msg::decode(&mut short), Err(CodecError::Truncated { .. })));
        let plan = Msg::AdaptPlan { epoch: 3, promotions: vec![(1, 0)], demotions: vec![2, 3] };
        assert_eq!(plan.encoded_len(), 1 + 8 + (4 + 12) + (4 + 16));
    }

    #[test]
    fn chain_reconstruction_lens_match_real_encodings() {
        let addr = Addr::worker(NodeId(3), 1);
        assert_eq!(
            Msg::pull_batch_req_len(4),
            Msg::PullBatchReq { keys: vec![0; 4], reply_to: addr, hops: 1 }.encoded_len()
        );
        assert_eq!(
            Msg::push_batch_req_len(3, 7),
            Msg::PushBatchReq {
                updates: vec![KeyUpdate { key: 0, delta: vec![0.0; 7] }; 3],
                reply_to: addr,
                hops: 1,
            }
            .encoded_len()
        );
    }

    #[test]
    fn batch_framing_amortizes_over_entries() {
        // The point of batching: n keys in one request cost far less wire
        // than n one-key requests.
        let n = 64;
        let batched = Msg::pull_batch_req_len(n);
        let singles = n * Msg::pull_batch_req_len(1);
        assert!(batched < singles / 10 * 6, "batched {batched} vs singles {singles}");
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut b = Bytes::from_static(&[200]);
        assert_eq!(Msg::decode(&mut b), Err(CodecError::UnknownTag(200)));
    }

    #[test]
    fn retired_single_key_tags_are_rejected() {
        // Protocol version 1's PullReq, PushReq, PullResp, PushAck and
        // LocalizeReq, as a version-1 peer encoded them: each must fail as
        // an unknown tag rather than alias a live message.
        let v1_payloads: [&[u8]; 5] = [
            &[1, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 1],
            &[2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 128, 63, 3, 0, 1, 0, 1],
            &[3, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 128, 63, 2],
            &[4, 9, 0, 0, 0, 0, 0, 0, 0, 2],
            &[5, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        ];
        for (i, payload) in v1_payloads.into_iter().enumerate() {
            let tag = i as u8 + 1;
            assert_eq!(payload[0], tag);
            let mut b = Bytes::from_static(payload);
            assert_eq!(Msg::decode(&mut b), Err(CodecError::UnknownTag(tag)));
        }
    }

    #[test]
    fn value_size_dominates_wire_size() {
        // A dim-500 pull response should be ~2 KB of payload: the figures
        // on communication volume depend on this being faithful.
        let m = Msg::pull_reply(0, vec![0.0; 500], 1);
        let len = m.encoded_len();
        assert!((2000..2100).contains(&len), "unexpected wire size {len}");
    }

    fn arb_msg() -> impl Strategy<Value = Msg> {
        let val =
            proptest::collection::vec(any::<f32>().prop_filter("finite", |f| f.is_finite()), 0..50);
        let addr =
            (any::<u16>(), any::<u16>()).prop_map(|(n, p)| Addr { node: NodeId(n), port: p });
        prop_oneof![
            (proptest::collection::vec((any::<u64>(), val.clone()), 0..8), any::<u8>()).prop_map(
                |(kv, hops)| Msg::PullBatchResp {
                    values: kv.into_iter().map(|(key, delta)| KeyUpdate { key, delta }).collect(),
                    hops,
                }
            ),
            (proptest::collection::vec(any::<u64>(), 0..16), any::<u8>())
                .prop_map(|(keys, hops)| Msg::PushBatchAck { keys, hops }),
            (any::<u64>(), val.clone()).prop_map(|(key, value)| Msg::Transfer { key, value }),
            (any::<u16>(), proptest::collection::vec((any::<u64>(), val.clone()), 0..8)).prop_map(
                |(from, kv)| Msg::SspFlush {
                    from: NodeId(from),
                    updates: kv.into_iter().map(|(key, delta)| KeyUpdate { key, delta }).collect(),
                }
            ),
            (proptest::collection::vec(any::<u64>(), 0..16), addr.clone(), any::<u8>())
                .prop_map(|(keys, reply_to, hops)| Msg::PullBatchReq { keys, reply_to, hops }),
            (proptest::collection::vec((any::<u64>(), val.clone()), 0..8), addr, any::<u8>())
                .prop_map(|(kv, reply_to, hops)| Msg::PushBatchReq {
                    updates: kv.into_iter().map(|(key, delta)| KeyUpdate { key, delta }).collect(),
                    reply_to,
                    hops,
                }),
            (
                any::<u16>(),
                any::<u64>(),
                proptest::collection::vec((any::<u64>(), val.clone()), 0..8)
            )
                .prop_map(|(from, epoch, kv)| Msg::ReplicaDeltas {
                    from: NodeId(from),
                    epoch,
                    updates: kv.into_iter().map(|(key, delta)| KeyUpdate { key, delta }).collect(),
                }),
            (any::<u16>(), proptest::collection::vec((any::<u64>(), val), 0..8)).prop_map(
                |(from, kv)| Msg::ModelPart {
                    from: NodeId(from),
                    entries: kv.into_iter().map(|(key, delta)| KeyUpdate { key, delta }).collect(),
                }
            ),
            (any::<u16>(), proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8))
                .prop_map(|(from, counts)| Msg::AccessReport { from: NodeId(from), counts }),
            (
                any::<u64>(),
                proptest::collection::vec((any::<u64>(), any::<u32>()), 0..8),
                proptest::collection::vec(any::<u64>(), 0..8),
            )
                .prop_map(|(epoch, promotions, demotions)| Msg::AdaptPlan {
                    epoch,
                    promotions,
                    demotions,
                }),
            (any::<u16>(), any::<u64>())
                .prop_map(|(from, epoch)| Msg::PlanAck { from: NodeId(from), epoch }),
        ]
    }

    proptest! {
        #[test]
        fn roundtrip_prop(m in arb_msg()) {
            let mut b = m.to_bytes();
            prop_assert_eq!(b.len(), m.encoded_len());
            let back = Msg::decode(&mut b).unwrap();
            prop_assert_eq!(back, m);
            prop_assert!(b.is_empty());
        }

        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut b = Bytes::from(data);
            let _ = Msg::decode(&mut b); // must not panic
        }
    }
}
