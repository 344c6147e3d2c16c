//! The on-wire frame format.
//!
//! Every message crossing a TCP connection is one *frame*: a fixed 32-byte
//! header followed by the payload bytes the [`nups_core::messages::Msg`]
//! codec produced. The header is versioned and checksummed so a desynced,
//! truncated or corrupted stream is rejected with a typed error instead of
//! feeding garbage into the message decoder:
//!
//! ```text
//! offset size field
//! 0      4    magic "NUPS" (little-endian u32)
//! 4      2    protocol version (currently 3)
//! 6      2    reserved, must be zero
//! 8      2    src node    ─┐
//! 10     2    src port     │ the simulator's Addr pair, verbatim
//! 12     2    dst node     │
//! 14     2    dst port    ─┘
//! 16     8    sent_at (nanoseconds, sender's timeline)
//! 24     4    payload length
//! 28     4    CRC-32 (IEEE) of the payload
//! ```
//!
//! The header is exactly [`WIRE_HEADER_BYTES`] long — the framing overhead
//! the cost model has charged per message all along — so the byte counters
//! of a simulated run and the bytes a TCP run actually puts on loopback
//! sockets agree by construction.

use std::io::{self, IoSlice, Read, Write};

use bytes::Bytes;
use nups_sim::net::Frame;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId};

/// `b"NUPS"` as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"NUPS");

/// Current protocol version. Bumped on any incompatible frame or message
/// change; the handshake rejects mismatched peers at connect time.
/// Version 2 retired version 1's single-key pull/push/localize messages
/// (every access is a batch message now); version 3 changed the access
/// report (then `SketchReport`, since renamed `AccessReport` with the same
/// tag and bytes) from count-min cells to exact `(key, count)` pairs. A
/// mixed cluster must fail here rather than mis-decode payloads.
pub const PROTOCOL_VERSION: u16 = 3;

/// Size of the fixed frame header. Kept equal to the cost model's
/// modelled framing overhead (asserted in the tests below).
pub const HEADER_BYTES: usize = 32;

/// Upper bound on a frame payload. Far above anything the protocol emits
/// (the largest messages are batched value transfers); primarily a guard
/// against a corrupt length field committing us to a huge allocation.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// A malformed frame header or corrupted payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not the protocol magic: the stream is
    /// desynchronized or the peer is not a NuPS node.
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u16),
    /// Reserved header bits were set (sent by a future version?).
    ReservedBitsSet(u16),
    /// The length field exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge { len: u32, max: u32 },
    /// The payload did not hash to the header's checksum.
    ChecksumMismatch { expected: u32, actual: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::ReservedBitsSet(r) => write!(f, "reserved header bits set: {r:#06x}"),
            FrameError::PayloadTooLarge { len, max } => {
                write!(f, "payload length {len} exceeds maximum {max}")
            }
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(f, "payload checksum {actual:#010x} != header {expected:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Why reading the next frame off a stream failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The socket failed (or closed mid-frame).
    Io(io::Error),
    /// The bytes arrived but did not form a valid frame.
    Frame(FrameError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::Io(e) => write!(f, "socket error: {e}"),
            ReadError::Frame(e) => write!(f, "bad frame: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// The decoded fixed-size frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub src: Addr,
    pub dst: Addr,
    pub sent_at: SimTime,
    pub payload_len: u32,
    pub checksum: u32,
}

impl FrameHeader {
    /// The header describing `frame`.
    pub fn of(frame: &Frame) -> FrameHeader {
        FrameHeader {
            src: frame.src,
            dst: frame.dst,
            sent_at: frame.sent_at,
            payload_len: frame.payload.len() as u32,
            checksum: crc32(&frame.payload),
        }
    }

    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        b[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        // b[6..8] reserved, zero.
        b[8..10].copy_from_slice(&self.src.node.0.to_le_bytes());
        b[10..12].copy_from_slice(&self.src.port.to_le_bytes());
        b[12..14].copy_from_slice(&self.dst.node.0.to_le_bytes());
        b[14..16].copy_from_slice(&self.dst.port.to_le_bytes());
        b[16..24].copy_from_slice(&self.sent_at.as_nanos().to_le_bytes());
        b[24..28].copy_from_slice(&self.payload_len.to_le_bytes());
        b[28..32].copy_from_slice(&self.checksum.to_le_bytes());
        b
    }

    /// Parse and validate a header. The payload checksum is verified later
    /// (by [`read_frame`], once the payload bytes are in).
    pub fn decode(b: &[u8; HEADER_BYTES]) -> Result<FrameHeader, FrameError> {
        let u16_at = |i: usize| u16::from_le_bytes([b[i], b[i + 1]]);
        let u32_at = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let magic = u32_at(0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = u16_at(4);
        if version != PROTOCOL_VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let reserved = u16_at(6);
        if reserved != 0 {
            return Err(FrameError::ReservedBitsSet(reserved));
        }
        let payload_len = u32_at(24);
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::PayloadTooLarge { len: payload_len, max: MAX_PAYLOAD });
        }
        Ok(FrameHeader {
            src: Addr { node: NodeId(u16_at(8)), port: u16_at(10) },
            dst: Addr { node: NodeId(u16_at(12)), port: u16_at(14) },
            sent_at: SimTime(u64::from_le_bytes(b[16..24].try_into().expect("8 bytes"))),
            payload_len,
            checksum: u32_at(28),
        })
    }
}

/// Append a frame's wire encoding (header + payload) to `out` — the
/// allocation-free building block coalesced flushes drain batches
/// through.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&FrameHeader::of(frame).encode());
    out.extend_from_slice(&frame.payload);
}

/// Encode a frame into one contiguous buffer (header + payload), ready for
/// a single `write_all`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + frame.payload.len());
    encode_frame_into(frame, &mut out);
    out
}

/// Write one frame to `w` (no flush; callers batch or flush as they like).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Batches whose total wire size fits under this bound are copied into the
/// scratch buffer and flushed with one `write_all`. Larger batches skip
/// the payload copy and go out as vectored writes instead: past this size
/// the memcpy costs more than the extra iovec bookkeeping.
pub const COALESCE_COPY_MAX: usize = 16 << 10;

/// Slices handed to each `write_vectored` call — comfortably under every
/// platform's `IOV_MAX` (1024 on Linux), and a whole drained send queue is
/// at most twice this many slices.
const VECTORED_CHUNK: usize = 512;

/// Write a whole drained batch of frames as one coalesced flush.
///
/// Small batches are encoded back to back into `scratch` (cleared first,
/// grown as needed, never shrunk — pair it with a buffer pool) and pushed
/// with a single `write_all`; batches past [`COALESCE_COPY_MAX`] encode
/// only their 32-byte headers into `scratch` and hand the kernel an
/// alternating header/payload iovec via `write_vectored`, so N queued
/// frames cost one syscall either way instead of N.
pub fn write_batch(w: &mut impl Write, frames: &[Frame], scratch: &mut Vec<u8>) -> io::Result<()> {
    match write_batch_from(w, frames, scratch, 0)? {
        None => Ok(()),
        Some(_) => Err(io::ErrorKind::WouldBlock.into()),
    }
}

/// [`write_batch`] in resumable form, for a non-blocking `w`: write the
/// batch's byte stream from offset `skip` on. `None` when the stream is
/// out in full; `Some(offset)` when `w` would block with the stream
/// written up to `offset`, so that a later call with `skip = offset` —
/// by whoever may block on `w`, the link's finisher thread — carries on
/// exactly where this one stopped.
pub fn write_batch_from(
    w: &mut impl Write,
    frames: &[Frame],
    scratch: &mut Vec<u8>,
    skip: usize,
) -> io::Result<Option<usize>> {
    scratch.clear();
    if frames.is_empty() {
        return Ok(None);
    }
    let total: usize = frames.iter().map(|f| f.wire_bytes()).sum();
    if total <= COALESCE_COPY_MAX {
        for f in frames {
            encode_frame_into(f, scratch);
        }
        return write_slices(w, &[&scratch[..]], skip);
    }
    scratch.reserve(frames.len() * HEADER_BYTES);
    for f in frames {
        scratch.extend_from_slice(&FrameHeader::of(f).encode());
    }
    let mut slices: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
    for (i, f) in frames.iter().enumerate() {
        slices.push(&scratch[i * HEADER_BYTES..(i + 1) * HEADER_BYTES]);
        if !f.payload.is_empty() {
            slices.push(&f.payload);
        }
    }
    write_slices(w, &slices, skip)
}

/// Write the bytes of `slices`, in order, from offset `skip` of their
/// concatenation on: vectored, tolerating arbitrarily short writes (a
/// socket under memory pressure, or a plain `Write` whose default
/// `write_vectored` forwards one slice at a time). `Some(offset)` if `w`
/// would block with everything before `offset` written. No slice may be
/// empty.
fn write_slices(w: &mut impl Write, slices: &[&[u8]], skip: usize) -> io::Result<Option<usize>> {
    // `pos` = (first slice with unwritten bytes, bytes of it written).
    let mut pos = advance(slices, (0, 0), skip);
    let mut written = skip;
    while pos.0 < slices.len() {
        let (idx, offset) = pos;
        let chunk = VECTORED_CHUNK.min(slices.len() - idx);
        // The last slice standing (always, for a copied batch) is a plain
        // write: no iovec to build.
        let res = if chunk == 1 {
            w.write(&slices[idx][offset..])
        } else {
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(chunk);
            iov.push(IoSlice::new(&slices[idx][offset..]));
            iov.extend(slices[idx + 1..idx + chunk].iter().map(|s| IoSlice::new(s)));
            w.write_vectored(&iov)
        };
        match res {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the batched frames",
                ))
            }
            Ok(n) => {
                pos = advance(slices, pos, n);
                written += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Some(written)),
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// The position `n` bytes past `(idx, offset)` — byte `offset` of
/// `slices[idx]` — in the concatenation of `slices`.
fn advance(
    slices: &[&[u8]],
    (mut idx, mut offset): (usize, usize),
    mut n: usize,
) -> (usize, usize) {
    while n > 0 && idx < slices.len() {
        let remaining = slices[idx].len() - offset;
        if n >= remaining {
            n -= remaining;
            idx += 1;
            offset = 0;
        } else {
            offset += n;
            n = 0;
        }
    }
    (idx, offset)
}

/// Read exactly `buf.len()` bytes, reporting a clean EOF *before the first
/// byte* as `Ok(false)`. An EOF mid-buffer is an error: the peer died in
/// the middle of a frame.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, ReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(true)
}

/// Read the next frame off `r`, however the bytes are chunked: short reads
/// and partial writes reassemble here. Returns [`ReadError::Eof`] on a
/// clean close at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ReadError> {
    read_frame_pooled(r, &mut Vec::new())
}

/// [`read_frame`] with the payload staged in `scratch` instead of a fresh
/// zeroed allocation per frame: `scratch` is grown as needed and its
/// contents reused across calls (pair it with a buffer pool). The decoded
/// frame is byte-identical to the allocating path — a proptest below holds
/// the two equal.
pub fn read_frame_pooled(r: &mut impl Read, scratch: &mut Vec<u8>) -> Result<Frame, ReadError> {
    let mut header_bytes = [0u8; HEADER_BYTES];
    if !read_exact_or_eof(r, &mut header_bytes)? {
        return Err(ReadError::Eof);
    }
    let header = FrameHeader::decode(&header_bytes).map_err(ReadError::Frame)?;
    let len = header.payload_len as usize;
    if scratch.len() < len {
        scratch.resize(len, 0);
    }
    let payload = &mut scratch[..len];
    if !payload.is_empty() && !read_exact_or_eof(r, payload)? {
        return Err(ReadError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the payload",
        )));
    }
    let actual = crc32(payload);
    if actual != header.checksum {
        return Err(ReadError::Frame(FrameError::ChecksumMismatch {
            expected: header.checksum,
            actual,
        }));
    }
    Ok(Frame {
        src: header.src,
        dst: header.dst,
        sent_at: header.sent_at,
        payload: Bytes::copy_from_slice(payload),
    })
}

/// Tables for slice-by-8 CRC: `CRC_TABLES[j][b]` is the CRC contribution
/// of byte `b` positioned `j` bytes before the end of an 8-byte block.
/// Table 0 alone is the classic byte-at-a-time table.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`. Every frame is
/// checksummed twice (once per side of the wire), so this runs slice-by-8
/// — eight table lookups per 8-byte block instead of one per byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = u32::MAX;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ c;
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;
    use nups_sim::cost::WIRE_HEADER_BYTES;
    use proptest::prelude::*;

    fn frame(src: Addr, dst: Addr, sent_at: u64, payload: &[u8]) -> Frame {
        Frame { src, dst, sent_at: SimTime(sent_at), payload: Bytes::copy_from_slice(payload) }
    }

    #[test]
    fn header_matches_the_cost_models_framing_overhead() {
        assert_eq!(HEADER_BYTES, WIRE_HEADER_BYTES, "byte accounting must stay exact");
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut c = u32::MAX;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ u32::MAX
        }
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        // Every alignment of the block/remainder split, plus a long run.
        for len in 0..64 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        assert_eq!(crc32(&data), bytewise(&data));
    }

    #[test]
    fn roundtrip_through_a_buffer() {
        let f = frame(Addr::server(NodeId(2)), Addr::worker(NodeId(0), 3), 42, b"payload");
        let bytes = encode_frame(&f);
        assert_eq!(bytes.len(), HEADER_BYTES + 7);
        let back = read_frame(&mut &bytes[..]).expect("valid frame");
        assert_eq!(back.src, f.src);
        assert_eq!(back.dst, f.dst);
        assert_eq!(back.sent_at, f.sent_at);
        assert_eq!(&back.payload[..], &f.payload[..]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"");
        let bytes = encode_frame(&f);
        assert_eq!(bytes.len(), HEADER_BYTES);
        let back = read_frame(&mut &bytes[..]).expect("valid frame");
        assert!(back.payload.is_empty());
    }

    #[test]
    fn clean_eof_between_frames() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &empty[..]), Err(ReadError::Eof)));
    }

    #[test]
    fn eof_mid_header_is_an_io_error() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"xyz");
        let bytes = encode_frame(&f);
        let truncated = &bytes[..HEADER_BYTES / 2];
        assert!(matches!(read_frame(&mut &truncated[..]), Err(ReadError::Io(_))));
        let no_payload = &bytes[..HEADER_BYTES + 1];
        assert!(matches!(read_frame(&mut &no_payload[..]), Err(ReadError::Io(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"x");
        let mut bytes = encode_frame(&f);
        bytes[0] ^= 0xFF;
        match read_frame(&mut &bytes[..]) {
            Err(ReadError::Frame(FrameError::BadMagic(_))) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"x");
        let mut bytes = encode_frame(&f);
        bytes[4] = 99;
        match read_frame(&mut &bytes[..]) {
            Err(ReadError::Frame(FrameError::UnsupportedVersion(99))) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_1_peer_rejected() {
        // What a node built before the single-key messages were retired
        // puts on the wire: same header layout, version field 1.
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"x");
        let mut bytes = encode_frame(&f);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(ReadError::Frame(FrameError::UnsupportedVersion(1))) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
    }

    #[test]
    fn version_2_peer_rejected() {
        // A node built before access reports carried (key, count) pairs:
        // its report would decode here as garbage pairs, so the header
        // must stop it first.
        let f = frame(Addr::server(NodeId(1)), Addr::server(NodeId(0)), 0, b"x");
        let mut bytes = encode_frame(&f);
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        match read_frame(&mut &bytes[..]) {
            Err(ReadError::Frame(FrameError::UnsupportedVersion(2))) => {}
            other => panic!("expected UnsupportedVersion(2), got {other:?}"),
        }
    }

    #[test]
    fn reserved_bits_rejected() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"x");
        let mut bytes = encode_frame(&f);
        bytes[6] = 1;
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(ReadError::Frame(FrameError::ReservedBitsSet(1)))
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"x");
        let mut bytes = encode_frame(&f);
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(ReadError::Frame(FrameError::PayloadTooLarge { .. }))
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let f = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 0, b"payload");
        let mut bytes = encode_frame(&f);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(ReadError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
    }

    /// A sink with a native `write_vectored` (accepts every slice whole),
    /// counting how many write calls the batch path actually makes.
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl CountingSink {
        fn new() -> CountingSink {
            CountingSink { bytes: Vec::new(), writes: 0 }
        }
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let mut n = 0;
            for b in bufs {
                self.bytes.extend_from_slice(b);
                n += b.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A sink that takes one byte per `write` call and leaves
    /// `write_vectored` at its default (forward the first nonempty slice),
    /// the worst short-write behavior `write_all_vectored` must survive.
    struct TrickleSink {
        bytes: Vec<u8>,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.bytes.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A sink whose native `write_vectored` accepts at most `cap` bytes per
    /// call, cutting across slice boundaries at arbitrary offsets.
    struct PartialVectoredSink {
        bytes: Vec<u8>,
        cap: usize,
    }

    impl Write for PartialVectoredSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.cap.min(buf.len());
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut left = self.cap;
            for b in bufs {
                let n = left.min(b.len());
                self.bytes.extend_from_slice(&b[..n]);
                left -= n;
                if left == 0 {
                    break;
                }
            }
            Ok(self.cap - left)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn batch(count: usize, payload_len: usize) -> Vec<Frame> {
        (0..count)
            .map(|i| {
                let payload: Vec<u8> = (0..payload_len).map(|j| (i * 31 + j) as u8).collect();
                frame(Addr::server(NodeId(0)), Addr::worker(NodeId(1), 0), i as u64, &payload)
            })
            .collect()
    }

    fn decode_all(mut bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        loop {
            match read_frame(&mut bytes) {
                Ok(f) => out.push(f),
                Err(ReadError::Eof) => return out,
                Err(e) => panic!("stream failed to reframe: {e}"),
            }
        }
    }

    fn assert_same_frames(got: &[Frame], want: &[Frame]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.src, w.src);
            assert_eq!(g.dst, w.dst);
            assert_eq!(g.sent_at, w.sent_at);
            assert_eq!(&g.payload[..], &w.payload[..]);
        }
    }

    #[test]
    fn small_batch_is_one_write() {
        // 64 frames × (32 header + 32 payload) = 4 KiB, under the copy
        // threshold: the whole drain must reach the socket in ONE write.
        let frames = batch(64, 32);
        let mut sink = CountingSink::new();
        let mut scratch = Vec::new();
        write_batch(&mut sink, &frames, &mut scratch).expect("write");
        assert_eq!(sink.writes, 1, "small batches coalesce into a single write_all");
        assert_same_frames(&decode_all(&sink.bytes), &frames);
    }

    #[test]
    fn large_batch_is_one_vectored_write() {
        // 8 frames × 4 KiB ≈ 33 KiB, past COALESCE_COPY_MAX: the vectored
        // path hands the kernel 16 iovecs in ONE call.
        let frames = batch(8, 4096);
        assert!(frames.iter().map(|f| f.wire_bytes()).sum::<usize>() > COALESCE_COPY_MAX);
        let mut sink = CountingSink::new();
        let mut scratch = Vec::new();
        write_batch(&mut sink, &frames, &mut scratch).expect("write");
        assert_eq!(sink.writes, 1, "one vectored write for the whole batch");
        assert_same_frames(&decode_all(&sink.bytes), &frames);
    }

    #[test]
    fn huge_batch_stays_within_the_iovec_chunking_bound() {
        // 600 frames → 1200 slices → ⌈1200/512⌉ = 3 vectored writes, never
        // one syscall per frame.
        let frames = batch(600, 64);
        let mut sink = CountingSink::new();
        let mut scratch = Vec::new();
        write_batch(&mut sink, &frames, &mut scratch).expect("write");
        assert!(sink.writes <= 3, "600 frames took {} writes", sink.writes);
        assert_same_frames(&decode_all(&sink.bytes), &frames);
    }

    #[test]
    fn byte_at_a_time_writer_still_frames_correctly() {
        // Default write_vectored forwards one slice to `write`, which here
        // accepts a single byte: every slice boundary and every offset
        // within a slice is exercised.
        let frames = batch(8, 4096);
        let mut sink = TrickleSink { bytes: Vec::new() };
        let mut scratch = Vec::new();
        write_batch(&mut sink, &frames, &mut scratch).expect("write");
        assert_same_frames(&decode_all(&sink.bytes), &frames);
    }

    #[test]
    fn partial_vectored_writes_still_frame_correctly() {
        // 7-byte acceptances cut both headers and payloads mid-slice; the
        // resume logic must pick up exactly where the kernel stopped.
        let frames = batch(8, 4096);
        let mut sink = PartialVectoredSink { bytes: Vec::new(), cap: 7 };
        let mut scratch = Vec::new();
        write_batch(&mut sink, &frames, &mut scratch).expect("write");
        assert_same_frames(&decode_all(&sink.bytes), &frames);
    }

    /// A non-blocking socket with room for exactly `room` more bytes.
    struct FullAfter {
        bytes: Vec<u8>,
        room: usize,
    }

    impl FullAfter {
        fn take(&mut self, buf: &[u8]) -> usize {
            let n = self.room.min(buf.len());
            self.bytes.extend_from_slice(&buf[..n]);
            self.room -= n;
            n
        }
    }

    impl Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.take(buf) {
                0 => Err(io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            match bufs.iter().map(|b| self.take(b)).sum() {
                0 => Err(io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_blocked_at_any_offset_resumes_to_the_same_stream() {
        // Three frames under the copy threshold, and three past it (the
        // vectored path), each cut at every byte offset of its stream.
        for frames in [batch(3, 40), batch(3, 5500)] {
            let mut whole = Vec::new();
            write_batch(&mut whole, &frames, &mut Vec::new()).expect("write");
            assert_eq!(
                whole.len() > COALESCE_COPY_MAX,
                frames[0].payload.len() == 5500,
                "one batch per path"
            );
            let mut scratch = Vec::new();
            for room in 0..=whole.len() {
                let blocked_at = (room < whole.len()).then_some(room);
                let mut sink = FullAfter { bytes: Vec::new(), room };
                let at = write_batch_from(&mut sink, &frames, &mut scratch, 0).expect("write");
                assert_eq!(at, blocked_at);
                assert_eq!(sink.bytes, whole[..room], "socket bytes, room {room}");
                // Whoever resumes — here into a socket with room again —
                // puts out exactly the rest.
                let mut rest = Vec::new();
                let at = write_batch_from(&mut rest, &frames, &mut scratch, room).expect("resume");
                assert_eq!(at, None);
                assert_eq!(rest, whole[room..], "resumed bytes, room {room}");
                // The blocking writer reports a full socket as an error,
                // as `write_all` always has.
                let mut sink = FullAfter { bytes: Vec::new(), room };
                let res = write_batch(&mut sink, &frames, &mut scratch).map_err(|e| e.kind());
                assert_eq!(res, blocked_at.map_or(Ok(()), |_| Err(io::ErrorKind::WouldBlock)));
            }
        }
    }

    #[test]
    fn pooled_scratch_reuse_does_not_alias_earlier_frames() {
        // Decode two frames through the SAME scratch buffer: the first
        // frame's payload must survive the second decode overwriting the
        // scratch bytes it was staged in.
        let a = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 1, &[0xAA; 64]);
        let b = frame(Addr::server(NodeId(0)), Addr::server(NodeId(1)), 2, &[0xBB; 64]);
        let mut wire = Vec::new();
        encode_frame_into(&a, &mut wire);
        encode_frame_into(&b, &mut wire);
        let mut r = &wire[..];
        let mut scratch = Vec::new();
        let got_a = read_frame_pooled(&mut r, &mut scratch).expect("frame a");
        let got_b = read_frame_pooled(&mut r, &mut scratch).expect("frame b");
        assert_eq!(&got_a.payload[..], &[0xAA; 64][..], "first frame must not alias scratch");
        assert_eq!(&got_b.payload[..], &[0xBB; 64][..]);
    }

    proptest! {
        #[test]
        fn pooled_decode_matches_allocating_decode(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..300), 1..8),
            junk in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            // Same wire bytes through both read paths — the pooled variant
            // starts from a dirty, arbitrarily-sized scratch and is reused
            // across every frame of the stream.
            let frames: Vec<Frame> = payloads.iter().enumerate()
                .map(|(i, p)| frame(Addr::server(NodeId(3)), Addr::worker(NodeId(0), 1), i as u64, p))
                .collect();
            let mut wire = Vec::new();
            for f in &frames {
                encode_frame_into(f, &mut wire);
            }
            let mut alloc_r = &wire[..];
            let mut pooled_r = &wire[..];
            let mut scratch = junk;
            for f in &frames {
                let a = read_frame(&mut alloc_r).expect("allocating decode");
                let p = read_frame_pooled(&mut pooled_r, &mut scratch).expect("pooled decode");
                prop_assert_eq!(&a.payload[..], &p.payload[..]);
                prop_assert_eq!(&p.payload[..], &f.payload[..]);
                prop_assert_eq!(a.src, p.src);
                prop_assert_eq!(a.dst, p.dst);
                prop_assert_eq!(a.sent_at, p.sent_at);
            }
            prop_assert!(matches!(read_frame(&mut alloc_r), Err(ReadError::Eof)));
            prop_assert!(matches!(read_frame_pooled(&mut pooled_r, &mut scratch), Err(ReadError::Eof)));
        }

        #[test]
        fn header_roundtrip_prop(
            src_node in any::<u16>(), src_port in any::<u16>(),
            dst_node in any::<u16>(), dst_port in any::<u16>(),
            sent_at in any::<u64>(),
            payload_len in 0u32..MAX_PAYLOAD,
            checksum in any::<u32>(),
        ) {
            let h = FrameHeader {
                src: Addr { node: NodeId(src_node), port: src_port },
                dst: Addr { node: NodeId(dst_node), port: dst_port },
                sent_at: SimTime(sent_at),
                payload_len,
                checksum,
            };
            let back = FrameHeader::decode(&h.encode()).expect("valid header");
            prop_assert_eq!(back, h);
        }

        #[test]
        fn frame_roundtrip_prop(
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            sent_at in any::<u64>(),
        ) {
            let f = frame(Addr::server(NodeId(1)), Addr::worker(NodeId(0), 2), sent_at, &payload);
            let bytes = encode_frame(&f);
            let back = read_frame(&mut &bytes[..]).expect("valid frame");
            prop_assert_eq!(&back.payload[..], &payload[..]);
            prop_assert_eq!(back.sent_at, SimTime(sent_at));
        }

        #[test]
        fn arbitrary_header_bytes_never_panic(b in proptest::collection::vec(any::<u8>(), HEADER_BYTES..=HEADER_BYTES)) {
            let arr: [u8; HEADER_BYTES] = b.try_into().unwrap();
            let _ = FrameHeader::decode(&arr); // must not panic
        }
    }
}
