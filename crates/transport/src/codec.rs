//! Wire format: hand-rolled little-endian framing.
//!
//! Every message is one frame. TCP prepends a `u32` length; the channel
//! transports move decoded messages directly but the codec is still the
//! source of truth for *wire size accounting* (the benchmarks charge each
//! message its encoded size, so protocol overhead is measured honestly).
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! offset  size  field
//! 0       1     message discriminant (0=Block,1=Kv,2=Start,3=Shutdown,
//!               4=Join,5=Welcome,6=Checkpoint,7=TaggedBlock)
//! Block (tenant stream 0 — the legacy single-job layout, byte-identical
//! to the pre-tenancy wire format):
//! 1       1     kind (0=Data,1=Result,2=Nack)
//! 2       1     ver
//! 3       1     epoch (membership epoch; the former pad byte, so block
//!               frame sizes are unchanged)
//! 4       2     slot
//! 6       2     wid
//! 8       2     entry count
//! 10      -     entries: block u32, next u32, len u16, len × f32
//! TaggedBlock (tenant stream ≠ 0; DESIGN §15 multi-tenancy):
//! 1..8    -     exactly as Block (kind, ver, epoch, slot, wid)
//! 8       2     stream (tenant stream id, never 0 — a tagged frame
//!               carrying stream 0 is rejected as non-canonical so
//!               every message has exactly one wire encoding)
//! 10      2     entry count
//! 12      -     entries (as Block)
//! Kv:
//! 1       1     kind
//! 2       2     wid
//! 4       8     nextkey
//! 12      4     pair count
//! 16      -     keys (u32 × count), then values (f32 × count)
//! Start:
//! 1       8     seq
//! Join:
//! 1       2     wid
//! Welcome:
//! 1       1     epoch
//! 2       2     cursor count
//! 4       -     vers (u8 × count)
//! Checkpoint:
//! 1       1     epoch
//! 2       1     ver
//! 3       2     slot (u16::MAX = membership-only)
//! 5       2     member count, then members (u16 × count)
//! -       2     evicted count, then evicted (u16 × count)
//! -       2     entry count, then entries (block format)
//! ```

use bytes::{Buf, Bytes};

use crate::message::{CheckpointDelta, Entry, KvPacket, Message, Packet, PacketKind};

/// Decode failures.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame ended before the advertised content.
    Truncated,
    /// Unknown discriminant byte.
    BadDiscriminant(u8),
    /// The frame is longer than its advertised content (every transport
    /// is frame-oriented, so trailing garbage means corruption).
    TrailingBytes,
    /// A tagged block frame carrying tenant stream 0. Stream 0 must use
    /// the legacy layout (discriminant 0), so each message has exactly
    /// one canonical encoding and byte accounting stays unambiguous.
    NonCanonical,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadDiscriminant(d) => write!(f, "bad discriminant {d}"),
            CodecError::TrailingBytes => write!(f, "oversized frame (trailing bytes)"),
            CodecError::NonCanonical => {
                write!(f, "tagged block frame carries stream 0 (non-canonical)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Fixed header bytes of a legacy (tenant stream 0) block message
/// (through the entry count).
pub const BLOCK_HEADER_BYTES: usize = 10;
/// Fixed header bytes of a stream-tagged block message (through the
/// entry count): the legacy header plus the `u16` tenant stream id.
pub const TAGGED_BLOCK_HEADER_BYTES: usize = 12;
/// Per-entry header bytes (block, next, length).
pub const ENTRY_HEADER_BYTES: usize = 10;
/// Fixed header bytes of a key-value message.
pub const KV_HEADER_BYTES: usize = 16;
/// Bytes per key-value pair on the wire.
pub const KV_PAIR_BYTES: usize = 8;
/// Fixed header bytes of a checkpoint message (through the entry count:
/// disc, epoch, ver, stream, member count, evicted count, entry count).
pub const CHECKPOINT_HEADER_BYTES: usize = 11;

/// Block header size for a given tenant stream id — the number the
/// simulators use to charge block frames so their byte accounting stays
/// anchored to the executable wire format under multi-tenancy.
pub fn block_header_bytes(stream: u16) -> usize {
    if stream == 0 {
        BLOCK_HEADER_BYTES
    } else {
        TAGGED_BLOCK_HEADER_BYTES
    }
}

const MSG_BLOCK: u8 = 0;
const MSG_KV: u8 = 1;
const MSG_START: u8 = 2;
const MSG_SHUTDOWN: u8 = 3;
const MSG_JOIN: u8 = 4;
const MSG_WELCOME: u8 = 5;
const MSG_CHECKPOINT: u8 = 6;
const MSG_BLOCK_TAGGED: u8 = 7;

fn kind_byte(k: PacketKind) -> u8 {
    match k {
        PacketKind::Data => 0,
        PacketKind::Result => 1,
        PacketKind::Nack => 2,
    }
}

fn kind_from(b: u8) -> Result<PacketKind, CodecError> {
    match b {
        0 => Ok(PacketKind::Data),
        1 => Ok(PacketKind::Result),
        2 => Ok(PacketKind::Nack),
        d => Err(CodecError::BadDiscriminant(d)),
    }
}

/// Bulk little-endian write of an `f32` slice (the wire payload hot
/// loop): one `resize` then fixed-width stores, which the compiler turns
/// into a straight memory copy on little-endian targets — measurably
/// faster than a push-per-value loop.
fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * data.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bulk little-endian write of a `u32` slice (KV keys).
fn put_u32s(out: &mut Vec<u8>, data: &[u32]) {
    let start = out.len();
    out.resize(start + 4 * data.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Length-prefixed little-endian write of a `u16` slice (membership
/// lists in checkpoint deltas).
fn put_u16s(out: &mut Vec<u8>, data: &[u16]) {
    out.extend_from_slice(&(data.len() as u16).to_le_bytes());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Length-prefixed entry list (shared by Block and Checkpoint frames).
fn put_entries(out: &mut Vec<u8>, entries: &[Entry]) {
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.block.to_le_bytes());
        out.extend_from_slice(&e.next.to_le_bytes());
        out.extend_from_slice(&(e.data.len() as u16).to_le_bytes());
        put_f32s(out, &e.data);
    }
}

/// Encodes `msg` into a fresh frame.
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = Vec::with_capacity(encoded_len(msg));
    encode_into(msg, &mut buf);
    Bytes::from(buf)
}

/// Encodes `msg` into `out`, reusing `out`'s allocation.
///
/// `out` is cleared first; after a warm-up frame of the same working-set
/// size this performs no heap allocation. This is the hot-path sibling
/// of [`encode`], used with a byte buffer checked out of a
/// [`crate::pool::BufferPool`].
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    encode_append(msg, out);
}

/// Encodes `msg` onto the end of `out`, leaving what `out` already holds
/// in place: a stream transport queues a burst of frames in one buffer
/// and hands the kernel all of them in one `write` (the TCP endpoint's
/// per-peer output buffer).
pub fn encode_append(msg: &Message, out: &mut Vec<u8>) {
    out.reserve(encoded_len(msg));
    match msg {
        Message::Block(p) => {
            // Stream 0 keeps the pre-tenancy layout byte for byte; any
            // other stream selects the tagged header. Exactly one
            // encoding per message (decode rejects the other).
            out.push(if p.stream == 0 {
                MSG_BLOCK
            } else {
                MSG_BLOCK_TAGGED
            });
            out.push(kind_byte(p.kind));
            out.push(p.ver);
            out.push(p.epoch);
            out.extend_from_slice(&p.slot.to_le_bytes());
            out.extend_from_slice(&p.wid.to_le_bytes());
            if p.stream != 0 {
                out.extend_from_slice(&p.stream.to_le_bytes());
            }
            put_entries(out, &p.entries);
        }
        Message::Kv(p) => {
            out.push(MSG_KV);
            out.push(kind_byte(p.kind));
            out.extend_from_slice(&p.wid.to_le_bytes());
            out.extend_from_slice(&p.nextkey.to_le_bytes());
            out.extend_from_slice(&(p.keys.len() as u32).to_le_bytes());
            put_u32s(out, &p.keys);
            put_f32s(out, &p.values);
        }
        Message::Start { seq } => {
            out.push(MSG_START);
            out.extend_from_slice(&seq.to_le_bytes());
        }
        Message::Shutdown => {
            out.push(MSG_SHUTDOWN);
        }
        Message::Join { wid } => {
            out.push(MSG_JOIN);
            out.extend_from_slice(&wid.to_le_bytes());
        }
        Message::Welcome { epoch, vers } => {
            out.push(MSG_WELCOME);
            out.push(*epoch);
            out.extend_from_slice(&(vers.len() as u16).to_le_bytes());
            out.extend_from_slice(vers);
        }
        Message::Checkpoint(d) => {
            out.push(MSG_CHECKPOINT);
            out.push(d.epoch);
            out.push(d.ver);
            out.extend_from_slice(&d.slot.to_le_bytes());
            put_u16s(out, &d.members);
            put_u16s(out, &d.evicted);
            put_entries(out, &d.entries);
        }
    }
}

/// Exact encoded size of `msg` in bytes — the number every benchmark
/// charges to the network for this message.
pub fn encoded_len(msg: &Message) -> usize {
    match msg {
        Message::Block(p) => {
            block_header_bytes(p.stream)
                + p.entries
                    .iter()
                    .map(|e| ENTRY_HEADER_BYTES + 4 * e.data.len())
                    .sum::<usize>()
        }
        Message::Kv(p) => KV_HEADER_BYTES + KV_PAIR_BYTES * p.keys.len(),
        Message::Start { .. } => 9,
        Message::Shutdown => 1,
        Message::Join { .. } => 3,
        Message::Welcome { vers, .. } => 4 + vers.len(),
        Message::Checkpoint(d) => {
            CHECKPOINT_HEADER_BYTES
                + 2 * (d.members.len() + d.evicted.len())
                + d.entries
                    .iter()
                    .map(|e| ENTRY_HEADER_BYTES + 4 * e.data.len())
                    .sum::<usize>()
        }
    }
}

/// Decodes one frame into a fresh [`Message`].
pub fn decode(buf: &[u8]) -> Result<Message, CodecError> {
    let mut msg = Message::Shutdown;
    decode_into(buf, &mut msg)?;
    Ok(msg)
}

/// Decodes one frame into `msg`, reusing `msg`'s buffers.
///
/// When `msg` is already the same variant as the frame, its entry list /
/// key and value vectors (and each entry's payload vector) are reused in
/// place, so a warmed-up receive loop decodes with **zero** heap
/// allocations. This is what removes the per-packet clone on the
/// aggregator ingest path (DESIGN §9).
///
/// On error, the contents of `msg` are unspecified (but valid).
///
/// The whole frame must be consumed: trailing bytes after the advertised
/// content yield [`CodecError::TrailingBytes`] (all our transports are
/// frame-oriented, so an oversized frame means corruption).
pub fn decode_into(mut buf: &[u8], msg: &mut Message) -> Result<(), CodecError> {
    let buf = &mut buf;
    let disc = get_u8(buf)?;
    match disc {
        MSG_BLOCK | MSG_BLOCK_TAGGED => {
            let kind = kind_from(get_u8(buf)?)?;
            let ver = get_u8(buf)?;
            let epoch = get_u8(buf)?;
            let slot = get_u16(buf)?;
            let wid = get_u16(buf)?;
            let stream = if disc == MSG_BLOCK_TAGGED {
                let s = get_u16(buf)?;
                if s == 0 {
                    // Stream 0 must use the legacy layout; rejecting the
                    // tagged spelling keeps encodings canonical.
                    return Err(CodecError::NonCanonical);
                }
                s
            } else {
                0
            };
            // Steal the previous entry list (and its payload buffers) so
            // they can be refilled in place.
            let prev = match std::mem::replace(msg, Message::Shutdown) {
                Message::Block(p) => p.entries,
                _ => Vec::new(),
            };
            let entries = get_entries(buf, prev)?;
            *msg = Message::Block(Packet {
                kind,
                ver,
                epoch,
                slot,
                stream,
                wid,
                entries,
            });
        }
        MSG_KV => {
            let kind = kind_from(get_u8(buf)?)?;
            let wid = get_u16(buf)?;
            let nextkey = get_u64(buf)?;
            let n = get_u32(buf)? as usize;
            if buf.remaining() < 8 * n {
                return Err(CodecError::Truncated);
            }
            let (mut keys, mut values) = match std::mem::replace(msg, Message::Shutdown) {
                Message::Kv(p) => (p.keys, p.values),
                _ => (Vec::new(), Vec::new()),
            };
            keys.clear();
            values.clear();
            let (key_bytes, rest) = buf.split_at(4 * n);
            let (val_bytes, rest) = rest.split_at(4 * n);
            *buf = rest;
            keys.extend(
                key_bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
            );
            values.extend(
                val_bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap())),
            );
            *msg = Message::Kv(KvPacket {
                kind,
                wid,
                keys,
                values,
                nextkey,
            });
        }
        MSG_START => *msg = Message::Start { seq: get_u64(buf)? },
        MSG_SHUTDOWN => *msg = Message::Shutdown,
        MSG_JOIN => *msg = Message::Join { wid: get_u16(buf)? },
        MSG_WELCOME => {
            let epoch = get_u8(buf)?;
            let n = get_u16(buf)? as usize;
            if buf.remaining() < n {
                return Err(CodecError::Truncated);
            }
            let mut vers = match std::mem::replace(msg, Message::Shutdown) {
                Message::Welcome { vers, .. } => vers,
                _ => Vec::new(),
            };
            vers.clear();
            let (bytes, rest) = buf.split_at(n);
            *buf = rest;
            vers.extend_from_slice(bytes);
            *msg = Message::Welcome { epoch, vers };
        }
        MSG_CHECKPOINT => {
            let epoch = get_u8(buf)?;
            let ver = get_u8(buf)?;
            let slot = get_u16(buf)?;
            let (members_prev, evicted_prev, entries_prev) =
                match std::mem::replace(msg, Message::Shutdown) {
                    Message::Checkpoint(d) => (d.members, d.evicted, d.entries),
                    _ => (Vec::new(), Vec::new(), Vec::new()),
                };
            let members = get_u16s(buf, members_prev)?;
            let evicted = get_u16s(buf, evicted_prev)?;
            let entries = get_entries(buf, entries_prev)?;
            *msg = Message::Checkpoint(CheckpointDelta {
                epoch,
                slot,
                ver,
                members,
                evicted,
                entries,
            });
        }
        d => return Err(CodecError::BadDiscriminant(d)),
    }
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(())
}

/// Length-prefixed entry list, refilling `entries` (and its payload
/// buffers) in place.
fn get_entries(buf: &mut &[u8], mut entries: Vec<Entry>) -> Result<Vec<Entry>, CodecError> {
    let n = get_u16(buf)? as usize;
    entries.truncate(n);
    for i in 0..n {
        let block = get_u32(buf)?;
        let next = get_u32(buf)?;
        let len = get_u16(buf)? as usize;
        if buf.remaining() < 4 * len {
            return Err(CodecError::Truncated);
        }
        let (payload, rest) = buf.split_at(4 * len);
        *buf = rest;
        if i == entries.len() {
            entries.push(Entry {
                block: 0,
                next: 0,
                data: Vec::with_capacity(len),
            });
        }
        let e = &mut entries[i];
        e.block = block;
        e.next = next;
        e.data.clear();
        e.data.extend(
            payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap())),
        );
    }
    Ok(entries)
}

/// Length-prefixed `u16` list, refilling `out` in place.
fn get_u16s(buf: &mut &[u8], mut out: Vec<u16>) -> Result<Vec<u16>, CodecError> {
    let n = get_u16(buf)? as usize;
    if buf.remaining() < 2 * n {
        return Err(CodecError::Truncated);
    }
    out.clear();
    let (bytes, rest) = buf.split_at(2 * n);
    *buf = rest;
    out.extend(
        bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().unwrap())),
    );
    Ok(out)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    Ok(buf.get_u64_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_block() -> Message {
        Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 1,
            epoch: 5,
            slot: 42,
            stream: 0,
            wid: 3,
            entries: vec![
                Entry::data(10, 14, vec![1.0, -2.5, 0.0]),
                Entry::ack(11, u32::MAX),
            ],
        })
    }

    fn sample_tagged_block() -> Message {
        match sample_block() {
            Message::Block(p) => Message::Block(Packet { stream: 9, ..p }),
            _ => unreachable!(),
        }
    }

    fn sample_checkpoint() -> Message {
        Message::Checkpoint(CheckpointDelta {
            epoch: 2,
            slot: 7,
            ver: 1,
            members: vec![0, 2, 3],
            evicted: vec![1],
            entries: vec![Entry::data(4, 6, vec![0.5, -0.25]), Entry::ack(5, 9)],
        })
    }

    #[test]
    fn block_roundtrip() {
        let msg = sample_block();
        let enc = encode(&msg);
        assert_eq!(enc.len(), encoded_len(&msg));
        assert_eq!(decode(&enc).unwrap(), msg);
    }

    #[test]
    fn kv_roundtrip() {
        let msg = Message::Kv(KvPacket {
            kind: PacketKind::Result,
            wid: 7,
            keys: vec![1, 5, 9],
            values: vec![0.5, -1.0, 2.0],
            nextkey: 99,
        });
        let enc = encode(&msg);
        assert_eq!(enc.len(), encoded_len(&msg));
        assert_eq!(decode(&enc).unwrap(), msg);
    }

    #[test]
    fn control_roundtrips() {
        for msg in [
            Message::Start { seq: 123456789 },
            Message::Shutdown,
            Message::Join { wid: 11 },
            Message::Welcome {
                epoch: 3,
                vers: vec![0, 1, 1, 0],
            },
            Message::Welcome {
                epoch: 0,
                vers: vec![],
            },
        ] {
            let enc = encode(&msg);
            assert_eq!(enc.len(), encoded_len(&msg));
            assert_eq!(decode(&enc).unwrap(), msg);
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        for msg in [
            sample_checkpoint(),
            Message::Checkpoint(CheckpointDelta {
                epoch: 1,
                slot: u16::MAX,
                ver: 0,
                members: vec![],
                evicted: vec![0, 1, 2],
                entries: vec![],
            }),
        ] {
            let enc = encode(&msg);
            assert_eq!(enc.len(), encoded_len(&msg));
            assert_eq!(decode(&enc).unwrap(), msg);
        }
    }

    #[test]
    fn block_epoch_rides_former_pad_byte() {
        // The epoch must not change the block frame size (the simulators'
        // byte accounting predates it), and it must land at offset 3.
        let msg = sample_block();
        let enc = encode(&msg);
        assert_eq!(enc.len(), encoded_len(&msg));
        assert_eq!(enc[3], 5);
        let mut zeroed = enc.as_ref().to_vec();
        zeroed[3] = 0;
        match decode(&zeroed).unwrap() {
            Message::Block(p) => assert_eq!(p.epoch, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Entry bytes of a block message (test-side mirror of the
    /// per-entry term in [`encoded_len`]).
    fn msg_entry_bytes(msg: &Message) -> usize {
        match msg {
            Message::Block(p) => p
                .entries
                .iter()
                .map(|e| ENTRY_HEADER_BYTES + 4 * e.data.len())
                .sum(),
            _ => unreachable!(),
        }
    }

    /// The pre-tenancy encoder, reconstructed verbatim from the frame
    /// layout that shipped before the stream tag existed. Golden
    /// reference: stream-0 frames must still produce these exact bytes.
    fn legacy_encode_block(
        kind: u8,
        ver: u8,
        epoch: u8,
        slot: u16,
        wid: u16,
        entries: &[Entry],
    ) -> Vec<u8> {
        let mut out = vec![0u8, kind, ver, epoch];
        out.extend_from_slice(&slot.to_le_bytes());
        out.extend_from_slice(&wid.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for e in entries {
            out.extend_from_slice(&e.block.to_le_bytes());
            out.extend_from_slice(&e.next.to_le_bytes());
            out.extend_from_slice(&(e.data.len() as u16).to_le_bytes());
            for v in &e.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn stream_zero_frames_match_pre_tenancy_bytes() {
        // Every packet kind, with and without payloads: the stream-0
        // encoding is byte-identical to the pre-PR wire format.
        let cases = [
            (
                PacketKind::Data,
                0u8,
                0u8,
                0u16,
                0u16,
                vec![Entry::data(0, 1, vec![1.5, -2.0])],
            ),
            (
                PacketKind::Result,
                1,
                2,
                42,
                3,
                vec![Entry::data(10, 14, vec![0.0]), Entry::ack(11, u32::MAX)],
            ),
            (PacketKind::Nack, 1, 0, 17, u16::MAX, vec![]),
        ];
        for (kind, ver, epoch, slot, wid, entries) in cases {
            let msg = Message::Block(Packet {
                kind,
                ver,
                epoch,
                slot,
                stream: 0,
                wid,
                entries: entries.clone(),
            });
            let golden = legacy_encode_block(kind_byte(kind), ver, epoch, slot, wid, &entries);
            assert_eq!(encode(&msg).as_ref(), &golden[..], "{}", msg.tag());
            assert_eq!(encoded_len(&msg), golden.len());
        }
    }

    #[test]
    fn tagged_block_layout_and_roundtrip() {
        for kind in [PacketKind::Data, PacketKind::Result, PacketKind::Nack] {
            let msg = Message::Block(Packet {
                kind,
                ver: 1,
                epoch: 3,
                slot: 0x1234,
                stream: 0xBEEF,
                wid: 0x0506,
                entries: vec![Entry::data(7, 9, vec![0.5])],
            });
            let enc = encode(&msg);
            assert_eq!(enc.len(), encoded_len(&msg));
            // Fixed offsets of the tagged header.
            assert_eq!(enc[0], 7, "tagged discriminant");
            assert_eq!(enc[1], kind_byte(kind));
            assert_eq!(enc[2], 1, "ver");
            assert_eq!(enc[3], 3, "epoch");
            assert_eq!(&enc[4..6], &0x1234u16.to_le_bytes(), "slot");
            assert_eq!(&enc[6..8], &0x0506u16.to_le_bytes(), "wid");
            assert_eq!(&enc[8..10], &0xBEEFu16.to_le_bytes(), "stream");
            assert_eq!(&enc[10..12], &1u16.to_le_bytes(), "entry count");
            assert_eq!(decode(&enc).unwrap(), msg);
        }
    }

    #[test]
    fn tagged_header_costs_exactly_two_bytes() {
        let (legacy, tagged) = (sample_block(), sample_tagged_block());
        assert_eq!(encoded_len(&tagged), encoded_len(&legacy) + 2);
        assert_eq!(block_header_bytes(0), BLOCK_HEADER_BYTES);
        assert_eq!(block_header_bytes(9), TAGGED_BLOCK_HEADER_BYTES);
        assert_eq!(block_header_bytes(u16::MAX), TAGGED_BLOCK_HEADER_BYTES);
    }

    #[test]
    fn tagged_frame_with_stream_zero_rejected() {
        // Hand-build a discriminant-7 frame that claims stream 0: the
        // decoder must refuse it (exactly one encoding per message).
        let enc = encode(&sample_tagged_block());
        let mut forged = enc.as_ref().to_vec();
        forged[8] = 0;
        forged[9] = 0;
        assert_eq!(decode(&forged), Err(CodecError::NonCanonical));
        // And dirty scratch state still decodes the honest frame.
        let mut scratch = sample_block();
        decode_into(&enc, &mut scratch).unwrap();
        assert_eq!(scratch, sample_tagged_block());
    }

    #[test]
    fn tagged_truncation_and_trailing_rejected() {
        let enc = encode(&sample_tagged_block());
        for cut in 0..enc.len() {
            assert_eq!(decode(&enc[..cut]), Err(CodecError::Truncated), "cut {cut}");
        }
        let mut over = enc.as_ref().to_vec();
        over.push(0xAB);
        assert_eq!(decode(&over), Err(CodecError::TrailingBytes));
        // Bad packet kind inside a tagged frame.
        assert_eq!(
            decode(&[MSG_BLOCK_TAGGED, 7]),
            Err(CodecError::BadDiscriminant(7))
        );
    }

    #[test]
    fn truncated_frames_error() {
        for msg in [sample_block(), sample_checkpoint()] {
            let enc = encode(&msg);
            for cut in 0..enc.len() {
                let r = decode(&enc[..cut]);
                assert!(r.is_err(), "{}: cut at {cut} should fail", msg.tag());
                assert_eq!(r.unwrap_err(), CodecError::Truncated);
            }
        }
    }

    #[test]
    fn bad_discriminant_errors() {
        assert_eq!(decode(&[99]), Err(CodecError::BadDiscriminant(99)));
        // bad packet kind inside a block message
        assert_eq!(decode(&[MSG_BLOCK, 7]), Err(CodecError::BadDiscriminant(7)));
    }

    #[test]
    fn nack_roundtrip() {
        let msg = Message::Block(Packet {
            kind: PacketKind::Nack,
            ver: 1,
            epoch: 0,
            slot: 17,
            stream: 0,
            wid: u16::MAX,
            entries: vec![],
        });
        let enc = encode(&msg);
        assert_eq!(enc.len(), encoded_len(&msg));
        assert_eq!(decode(&enc).unwrap(), msg);
    }

    #[test]
    fn empty_entries_block_roundtrip() {
        let msg = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: 0,
            epoch: 0,
            slot: 0,
            stream: 0,
            wid: 0,
            entries: vec![],
        });
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn decode_into_reuses_buffers() {
        let msg = sample_block();
        let enc = encode(&msg);
        // Warm a scratch message with different (larger) content.
        let mut scratch = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: 9,
            epoch: 9,
            slot: 9,
            stream: 9,
            wid: 9,
            entries: vec![
                Entry::data(1, 2, vec![9.0; 16]),
                Entry::data(3, 4, vec![8.0; 16]),
                Entry::data(5, 6, vec![7.0; 16]),
            ],
        });
        let ptrs: Vec<*const f32> = match &scratch {
            Message::Block(p) => p.entries.iter().map(|e| e.data.as_ptr()).collect(),
            _ => unreachable!(),
        };
        decode_into(&enc, &mut scratch).unwrap();
        assert_eq!(scratch, msg);
        match &scratch {
            Message::Block(p) => {
                // First entry (3 floats, fits in cap 16) reuses its buffer.
                assert_eq!(p.entries[0].data.as_ptr(), ptrs[0]);
            }
            _ => unreachable!(),
        }
        // Decoding again into the now-matching scratch is also exact.
        decode_into(&enc, &mut scratch).unwrap();
        assert_eq!(scratch, msg);
    }

    #[test]
    fn encode_append_keeps_what_the_buffer_holds() {
        let mut out = vec![0xAA, 0xBB];
        for msg in [sample_block(), sample_checkpoint(), Message::Shutdown] {
            let at = out.len();
            encode_append(&msg, &mut out);
            assert_eq!(&out[at..], encode(&msg).as_ref());
        }
        assert_eq!(&out[..2], &[0xAA, 0xBB]);
    }

    #[test]
    fn decode_into_from_any_variant() {
        let enc = encode(&sample_block());
        for mut scratch in [
            Message::Shutdown,
            Message::Start { seq: 3 },
            Message::Kv(KvPacket {
                kind: PacketKind::Data,
                wid: 0,
                keys: vec![1],
                values: vec![1.0],
                nextkey: 2,
            }),
            Message::Join { wid: 4 },
            Message::Welcome {
                epoch: 9,
                vers: vec![1; 4],
            },
            sample_checkpoint(),
        ] {
            decode_into(&enc, &mut scratch).unwrap();
            assert_eq!(scratch, sample_block());
        }
        // And the reverse: a checkpoint decoded over block scratch.
        let enc = encode(&sample_checkpoint());
        let mut scratch = sample_block();
        decode_into(&enc, &mut scratch).unwrap();
        assert_eq!(scratch, sample_checkpoint());
    }

    #[test]
    fn trailing_bytes_rejected() {
        for msg in [
            sample_block(),
            Message::Kv(KvPacket {
                kind: PacketKind::Data,
                wid: 1,
                keys: vec![4],
                values: vec![0.25],
                nextkey: 9,
            }),
            Message::Start { seq: 5 },
            Message::Shutdown,
            Message::Join { wid: 1 },
            Message::Welcome {
                epoch: 2,
                vers: vec![0, 1],
            },
            sample_checkpoint(),
        ] {
            let mut enc = encode(&msg).as_ref().to_vec();
            enc.push(0xAB);
            assert_eq!(
                decode(&enc),
                Err(CodecError::TrailingBytes),
                "{}",
                msg.tag()
            );
        }
    }

    #[test]
    fn max_size_entry_roundtrip() {
        // The wire length field is u16: the largest legal entry payload.
        let len = u16::MAX as usize;
        let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 1,
            epoch: 0,
            slot: 7,
            stream: 0,
            wid: 2,
            entries: vec![Entry::data(0, u32::MAX, data.clone())],
        });
        let enc = encode(&msg);
        assert_eq!(enc.len(), encoded_len(&msg));
        let dec = decode(&enc).unwrap();
        assert_eq!(dec, msg);
        assert_eq!(encode(&dec), enc);

        // Same maximal entry through the tagged layout.
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 1,
            epoch: 0,
            slot: 7,
            stream: u16::MAX,
            wid: 2,
            entries: vec![Entry::data(0, u32::MAX, data)],
        });
        let enc = encode(&msg);
        assert_eq!(enc.len(), encoded_len(&msg));
        let dec = decode(&enc).unwrap();
        assert_eq!(dec, msg);
        assert_eq!(encode(&dec), enc);
    }

    #[test]
    fn oversized_kv_count_is_truncated_error() {
        // A KV header advertising more pairs than the frame carries.
        let msg = Message::Kv(KvPacket {
            kind: PacketKind::Data,
            wid: 0,
            keys: vec![1, 2],
            values: vec![1.0, 2.0],
            nextkey: 3,
        });
        let mut enc = encode(&msg).as_ref().to_vec();
        // Bump the pair count field (offset 12, u32 le) beyond reality.
        enc[12] = 200;
        assert_eq!(decode(&enc), Err(CodecError::Truncated));
    }

    #[test]
    fn oversized_entry_count_is_truncated_error() {
        let mut enc = encode(&sample_block()).as_ref().to_vec();
        // Entry-count field at offset 8 (u16 le): advertise more entries.
        enc[8] = 0xFF;
        assert_eq!(decode(&enc), Err(CodecError::Truncated));
    }

    proptest! {
        #[test]
        fn prop_encode_decode_into_encode_identity(
            kind in prop_oneof![
                Just(PacketKind::Data),
                Just(PacketKind::Result),
                Just(PacketKind::Nack),
            ],
            ver in 0u8..2,
            epoch in any::<u8>(),
            slot in any::<u16>(),
            stream in any::<u16>(),
            wid in any::<u16>(),
            entries in prop::collection::vec(
                (any::<u32>(), any::<u32>(), prop::collection::vec(any::<f32>(), 0..64)),
                0..8,
            ),
            scratch_entries in 0usize..4,
            scratch_len in 0usize..16,
        ) {
            let entries: Vec<Entry> = entries
                .into_iter()
                .map(|(block, next, data)| Entry { block, next, data })
                .collect();
            let msg = Message::Block(Packet { kind, ver, epoch, slot, stream, wid, entries });
            let enc = encode(&msg);
            // Decode into dirty scratch of arbitrary prior shape.
            let mut scratch = Message::Block(Packet {
                kind: PacketKind::Result,
                ver: 1,
                epoch: 1,
                slot: 1,
                stream: 1,
                wid: 1,
                entries: (0..scratch_entries)
                    .map(|i| Entry::data(i as u32, 0, vec![0.25; scratch_len]))
                    .collect(),
            });
            decode_into(&enc, &mut scratch).unwrap();
            // encode → decode_into → encode is byte-identical (NaN-safe).
            let mut re = Vec::new();
            encode_into(&scratch, &mut re);
            prop_assert_eq!(&re[..], enc.as_ref());
        }

        #[test]
        fn prop_kv_decode_into_roundtrip(
            kind in prop_oneof![
                Just(PacketKind::Data),
                Just(PacketKind::Result),
                Just(PacketKind::Nack),
            ],
            wid in any::<u16>(),
            nextkey in any::<u64>(),
            pairs in prop::collection::vec((any::<u32>(), any::<f32>()), 0..64),
        ) {
            let (keys, values): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
            let msg = Message::Kv(KvPacket { kind, wid, keys, values, nextkey });
            let enc = encode(&msg);
            let mut scratch = Message::Kv(KvPacket {
                kind: PacketKind::Data,
                wid: 0,
                keys: vec![7; 3],
                values: vec![7.0; 3],
                nextkey: 0,
            });
            decode_into(&enc, &mut scratch).unwrap();
            let mut re = Vec::new();
            encode_into(&scratch, &mut re);
            prop_assert_eq!(&re[..], enc.as_ref());
        }
    }

    proptest! {
        #[test]
        fn prop_block_roundtrip(
            kind in prop_oneof![
                Just(PacketKind::Data),
                Just(PacketKind::Result),
                Just(PacketKind::Nack),
            ],
            ver in 0u8..2,
            epoch in any::<u8>(),
            slot in any::<u16>(),
            stream in any::<u16>(),
            wid in any::<u16>(),
            entries in prop::collection::vec(
                (any::<u32>(), any::<u32>(), prop::collection::vec(any::<f32>(), 0..32)),
                0..8,
            ),
        ) {
            let entries: Vec<Entry> = entries
                .into_iter()
                .map(|(block, next, data)| Entry { block, next, data })
                .collect();
            let msg = Message::Block(Packet { kind, ver, epoch, slot, stream, wid, entries });
            let enc = encode(&msg);
            prop_assert_eq!(enc.len(), encoded_len(&msg));
            // The header grows by exactly the u16 stream tag and only
            // for nonzero streams.
            prop_assert_eq!(
                enc.len(),
                block_header_bytes(stream)
                    + msg_entry_bytes(&msg),
            );
            let dec = decode(&enc).unwrap();
            // NaN-safe comparison: encode again and compare bytes.
            prop_assert_eq!(encode(&dec), enc);
        }

        #[test]
        fn prop_checkpoint_roundtrip(
            epoch in any::<u8>(),
            slot in any::<u16>(),
            ver in 0u8..2,
            members in prop::collection::vec(any::<u16>(), 0..8),
            evicted in prop::collection::vec(any::<u16>(), 0..8),
            entries in prop::collection::vec(
                (any::<u32>(), any::<u32>(), prop::collection::vec(any::<f32>(), 0..32)),
                0..4,
            ),
        ) {
            let entries: Vec<Entry> = entries
                .into_iter()
                .map(|(block, next, data)| Entry { block, next, data })
                .collect();
            let msg = Message::Checkpoint(CheckpointDelta {
                epoch, slot, ver, members, evicted, entries,
            });
            let enc = encode(&msg);
            prop_assert_eq!(enc.len(), encoded_len(&msg));
            let mut scratch = sample_checkpoint();
            decode_into(&enc, &mut scratch).unwrap();
            let mut re = Vec::new();
            encode_into(&scratch, &mut re);
            prop_assert_eq!(&re[..], enc.as_ref());
        }

        #[test]
        fn prop_kv_roundtrip(
            wid in any::<u16>(),
            nextkey in any::<u64>(),
            pairs in prop::collection::vec((any::<u32>(), any::<f32>()), 0..64),
        ) {
            let (keys, values): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
            let msg = Message::Kv(KvPacket {
                kind: PacketKind::Data, wid, keys, values, nextkey,
            });
            let enc = encode(&msg);
            prop_assert_eq!(enc.len(), encoded_len(&msg));
            prop_assert_eq!(encode(&decode(&enc).unwrap()), enc);
        }
    }
}
