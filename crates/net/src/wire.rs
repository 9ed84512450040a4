//! `.cws` wire framing: length-prefixed, CRC-32-guarded frames.
//!
//! A connection is a byte stream of *frames*. Every frame is guarded by
//! the same CRC-32 the on-disk `.cws` format uses, so any damage —
//! flipped bytes, truncation mid-frame, implausible field values —
//! surfaces [`NetError::Corrupt`], never a panic or a silent skip.
//!
//! ```text
//! frame   := magic[4]="CWSF" kind:u8 _:[u8;3]
//!            seq:u64 payload_len:u32              (20-byte header)
//!            payload[payload_len]
//!            crc:u32                              (over header + payload)
//!
//! hello   := version:u16 cws_file_header[32]      (kind 1, seq 0)
//! data    := cws_block+                           (kind 2, seq 1,2,3,...)
//!            (back to back; a client sends <= 64
//!             one-event blocks, in arrival order)
//! ack     := (empty; seq = highest data seq       (kind 3)
//!             processed and committed)
//! bye     := (empty; seq = last data seq sent)    (kind 4)
//! reject  := utf-8 reason                         (kind 5)
//! ```
//!
//! The handshake reuses the store's versioned 32-byte file header
//! (magic, format version, encoding mode, `l`, window spec — see
//! [`BlockCodec`]) wrapped with a wire protocol version
//! ([`WIRE_VERSION`], 2 since data frames carry more than one block),
//! so both ends agree on framing and geometry before any data flows.
//! A data frame carries one or more whole `.cws` blocks — the bytes on
//! the wire are the bytes a store writes; the client puts up to
//! [`MAX_FRAME_EVENTS`] one-event blocks in one frame. Sequence numbers
//! are per-connection and strictly consecutive, one per frame;
//! cumulative acks plus server-side `(node, window)` dedupe make replay
//! after a reconnect idempotent.

use crate::error::{NetError, Result};
use crate::link::Link;
use cwsmooth_store::codec::{self, BlockCodec};
use std::time::Duration;

/// Frame magic ("CWSF" on the wire).
pub const FRAME_MAGIC: [u8; 4] = *b"CWSF";
/// Wire protocol version carried in the hello payload. Version 1
/// carried one block per data frame; a version-1 peer would misread a
/// multi-block frame, so the handshake rejects it instead.
pub const WIRE_VERSION: u16 = 2;
/// Most events a client puts in one data frame, each as a one-event
/// block.
pub const MAX_FRAME_EVENTS: usize = 64;
/// Fixed frame header length (magic, kind, pad, seq, payload length).
pub const FRAME_HEADER_LEN: usize = 20;
/// Largest accepted frame payload. A plausibility bound: the CRC catches
/// accidental damage, but a damaged length field must not size an
/// allocation before the CRC can be checked.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 26;
/// Hello payload length: wire version + `.cws` file header.
pub const HELLO_LEN: usize = 2 + codec::HEADER_LEN;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server stream opener: wire version + geometry header.
    Hello,
    /// Client → server: one or more `.cws` blocks of signature events.
    Data,
    /// Server → client: cumulative acknowledgement (`seq` = highest
    /// data sequence processed and committed downstream).
    Ack,
    /// Client → server: clean end of stream (`seq` = last data seq).
    Bye,
    /// Server → client: the stream is unacceptable (geometry mismatch);
    /// payload is a UTF-8 reason. Reconnecting cannot help.
    Reject,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Data => 2,
            FrameKind::Ack => 3,
            FrameKind::Bye => 4,
            FrameKind::Reject => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Data),
            3 => Some(FrameKind::Ack),
            4 => Some(FrameKind::Bye),
            5 => Some(FrameKind::Reject),
            _ => None,
        }
    }
}

/// A parsed frame borrowing its payload from the read buffer.
#[derive(Debug)]
pub struct FrameView<'a> {
    /// Frame type.
    pub kind: FrameKind,
    /// Sequence / ack number (meaning depends on `kind`).
    pub seq: u64,
    /// Payload bytes (CRC already verified).
    pub payload: &'a [u8],
}

/// Appends one encoded frame to `out`. Errors only on an oversized
/// payload (a caller bug, not a data condition).
pub fn encode_frame(out: &mut Vec<u8>, kind: FrameKind, seq: u64, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(NetError::Invalid(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte bound",
            payload.len()
        )));
    }
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind.code());
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = codec::crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Bytes one link read may fill: room for a dozen full data frames.
const READ_CHUNK: usize = 64 * 1024;

/// Validated frame header fields (before payload and CRC are read).
#[derive(Clone, Copy)]
struct FrameHeader {
    kind: FrameKind,
    seq: u64,
    payload_len: usize,
}

impl FrameHeader {
    /// Whole frame length: header, payload and CRC.
    fn len(self) -> usize {
        FRAME_HEADER_LEN + self.payload_len + 4
    }

    /// The view of this frame, which starts `bytes` and was verified
    /// by [`split_frame`].
    fn view(self, bytes: &[u8]) -> FrameView<'_> {
        FrameView {
            kind: self.kind,
            seq: self.seq,
            payload: &bytes[FRAME_HEADER_LEN..self.len() - 4],
        }
    }
}

/// Validates the 20 fixed header bytes at stream offset `offset`.
fn parse_frame_header(h: &[u8], offset: u64) -> Result<FrameHeader> {
    let corrupt = |at: u64, message: String| NetError::Corrupt {
        offset: offset + at,
        message,
    };
    if h.len() < FRAME_HEADER_LEN {
        return Err(corrupt(
            h.len() as u64,
            format!(
                "frame header truncated ({} of {FRAME_HEADER_LEN} bytes)",
                h.len()
            ),
        ));
    }
    if h[..4] != FRAME_MAGIC {
        return Err(corrupt(0, "bad frame magic".into()));
    }
    let kind = FrameKind::from_code(h[4])
        .ok_or_else(|| corrupt(4, format!("unknown frame kind {}", h[4])))?;
    if h[5..8] != [0, 0, 0] {
        return Err(corrupt(5, "nonzero frame padding".into()));
    }
    // lint:allow(no-panic-paths): statically infallible — an 8-byte
    // slice always converts to [u8; 8] (length checked above).
    let seq = u64::from_le_bytes(h[8..16].try_into().unwrap());
    // lint:allow(no-panic-paths): statically infallible — a 4-byte
    // slice always converts to [u8; 4] (length checked above).
    let payload_len = u32::from_le_bytes(h[16..20].try_into().unwrap()) as usize;
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(corrupt(
            16,
            format!("payload length {payload_len} exceeds the {MAX_FRAME_PAYLOAD}-byte bound"),
        ));
    }
    Ok(FrameHeader {
        kind,
        seq,
        payload_len,
    })
}

/// What [`split_frame`] found at the start of a byte slice.
enum Split {
    /// A whole frame with a valid header and CRC.
    Whole(FrameHeader),
    /// Only the first bytes of a frame; it needs `need` bytes in all
    /// (the header length until the header is complete).
    Partial { need: usize },
}

/// Checks the frame that starts `bytes`, at stream offset `offset`:
/// header fields and payload bound as soon as the header is complete,
/// then the CRC once the whole frame is there. The one parser behind
/// [`parse_frame`] and [`FrameReader`].
fn split_frame(bytes: &[u8], offset: u64) -> Result<Split> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Ok(Split::Partial {
            need: FRAME_HEADER_LEN,
        });
    }
    let header = parse_frame_header(&bytes[..FRAME_HEADER_LEN], offset)?;
    let total = header.len();
    if bytes.len() < total {
        return Ok(Split::Partial { need: total });
    }
    let stored = u32::from_le_bytes([
        bytes[total - 4],
        bytes[total - 3],
        bytes[total - 2],
        bytes[total - 1],
    ]);
    let actual = codec::crc32(&bytes[..total - 4]);
    if stored != actual {
        return Err(NetError::Corrupt {
            offset: offset + total as u64 - 4,
            message: format!("frame CRC mismatch (stored {stored:08x}, computed {actual:08x})"),
        });
    }
    Ok(Split::Whole(header))
}

/// Parses the frame starting at byte `at` of `bytes`. Returns
/// `Ok(None)` at a clean end of stream (`at == bytes.len()`); anything
/// between a frame boundary and a full valid frame is
/// [`NetError::Corrupt`]. On success also returns the offset of the
/// next frame.
pub fn parse_frame(bytes: &[u8], at: usize) -> Result<Option<(FrameView<'_>, usize)>> {
    if at == bytes.len() {
        return Ok(None);
    }
    let rest = &bytes[at..];
    match split_frame(rest, at as u64)? {
        Split::Whole(header) => Ok(Some((header.view(rest), at + header.len()))),
        Split::Partial { need } => Err(NetError::Corrupt {
            offset: bytes.len() as u64,
            message: format!("frame truncated ({} of {need} bytes)", rest.len()),
        }),
    }
}

/// Outcome of one [`FrameReader::read_frame`] or
/// [`FrameReader::poll_frame`] call.
#[derive(Debug)]
pub enum ReadOutcome<'a> {
    /// A complete, CRC-verified frame.
    Frame(FrameView<'a>),
    /// The peer closed the stream at a frame boundary.
    Eof,
    /// No whole frame yet: the first-byte timeout elapsed with no data
    /// (only when a first-byte timeout was requested), or a
    /// non-blocking read found nothing more. Bytes of a partial frame
    /// stay buffered for the next call.
    Idle,
}

/// How a read waits when the buffer holds no whole frame.
#[derive(Clone, Copy)]
enum Wait {
    /// Blocking link: `first_byte` bounds the wait for a frame's first
    /// byte (`None` waits forever), `complete_within` the rest.
    Timed {
        first_byte: Option<Duration>,
        complete_within: Duration,
    },
    /// Non-blocking link: report [`ReadOutcome::Idle`] at the first
    /// read that would block.
    Never,
}

/// Incremental frame reader over a [`Link`], reading through one buffer.
///
/// One `read` fills up to 64 KiB, and every whole frame in the buffer
/// is parsed out of it before the link is read again, so a stream of
/// small frames costs a fraction of a syscall per frame. Validation is
/// shared with [`parse_frame`]: the same header checks, the same
/// payload bound, the same CRC. End-of-stream anywhere except a frame
/// boundary is [`NetError::Corrupt`]; a read timeout *after* the first
/// byte of a frame is [`NetError::Timeout`] (a stalled peer mid-frame
/// is a connection fault, not idleness). The link's read timeout is
/// set only when the wanted timeout changes.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes read from the link; `buf[start..end]` is not parsed yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Stream offset of `buf[start]`, for error offsets.
    consumed: u64,
    /// Read timeout last set on the link; `None` until the first set.
    timeout: Option<Option<Duration>>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards buffered bytes, resets the stream offset and forgets
    /// the link's read timeout.
    ///
    /// Call this when switching the reader to a *new* connection: a
    /// previous connection that died mid-frame leaves a stale prefix in
    /// the buffer, and parsing the new peer's bytes against it would
    /// reject every frame the new connection sends; the new link's
    /// timeout is not the one the reader last set.
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
        self.consumed = 0;
        self.timeout = None;
    }

    /// Reads the next frame from a blocking link. `first_byte` bounds
    /// the wait for the frame's first byte (`None` blocks
    /// indefinitely); `complete_within` bounds the rest of the frame
    /// once started.
    pub fn read_frame(
        &mut self,
        link: &mut dyn Link,
        first_byte: Option<Duration>,
        complete_within: Duration,
    ) -> Result<ReadOutcome<'_>> {
        self.next_frame(
            link,
            Wait::Timed {
                first_byte,
                complete_within,
            },
        )
    }

    /// Reads the next frame from a link in non-blocking mode
    /// ([`Link::set_nonblocking`]) without waiting: a frame already
    /// buffered or readable now, else [`ReadOutcome::Idle`] with any
    /// partial frame kept for the next call.
    pub fn poll_frame(&mut self, link: &mut dyn Link) -> Result<ReadOutcome<'_>> {
        self.next_frame(link, Wait::Never)
    }

    fn next_frame(&mut self, link: &mut dyn Link, wait: Wait) -> Result<ReadOutcome<'_>> {
        loop {
            let have = self.end - self.start;
            let need = match split_frame(&self.buf[self.start..self.end], self.consumed)? {
                Split::Whole(header) => {
                    let at = self.start;
                    self.start += header.len();
                    self.consumed += header.len() as u64;
                    return Ok(ReadOutcome::Frame(header.view(&self.buf[at..])));
                }
                Split::Partial { need } => need,
            };
            self.make_room(need);
            if let Wait::Timed {
                first_byte,
                complete_within,
            } = wait
            {
                // Once a frame's first byte landed, the rest must follow
                // promptly, however patient the caller is about idleness.
                let timeout = if have == 0 {
                    first_byte
                } else {
                    Some(complete_within)
                };
                self.set_timeout(link, timeout)?;
            }
            match link.read(&mut self.buf[self.end..]) {
                Ok(0) if have == 0 => return Ok(ReadOutcome::Eof),
                Ok(0) => {
                    return Err(NetError::Corrupt {
                        offset: self.consumed + have as u64,
                        message: format!("stream ended mid-frame ({have} of {need} bytes)"),
                    });
                }
                Ok(n) => self.end += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return match wait {
                        Wait::Never => Ok(ReadOutcome::Idle),
                        Wait::Timed {
                            first_byte: Some(_),
                            ..
                        } if have == 0 => Ok(ReadOutcome::Idle),
                        Wait::Timed { .. } => Err(NetError::Timeout(format!(
                            "peer stalled mid-frame ({have} of {need} bytes)"
                        ))),
                    };
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Moves the unparsed bytes (at most one partial frame) to the
    /// front and sizes the buffer for a frame of `need` bytes plus a
    /// full read.
    fn make_room(&mut self, need: usize) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let want = need.max(READ_CHUNK);
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
    }

    /// Sets the link's read timeout unless it is already `timeout`.
    fn set_timeout(&mut self, link: &mut dyn Link, timeout: Option<Duration>) -> Result<()> {
        if self.timeout != Some(timeout) {
            link.set_read_timeout(timeout)?;
            self.timeout = Some(timeout);
        }
        Ok(())
    }
}

/// Builds the hello payload: wire version + geometry header.
pub fn hello_payload(codec: &BlockCodec) -> Vec<u8> {
    let mut out = Vec::with_capacity(HELLO_LEN);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&codec.header_bytes());
    out
}

/// Parses and validates a hello payload into the sender's geometry.
pub fn parse_hello(payload: &[u8]) -> Result<BlockCodec> {
    if payload.len() != HELLO_LEN {
        return Err(NetError::Corrupt {
            offset: 0,
            message: format!(
                "hello payload is {} bytes, expected {HELLO_LEN}",
                payload.len()
            ),
        });
    }
    let version = u16::from_le_bytes([payload[0], payload[1]]);
    if version != WIRE_VERSION {
        return Err(NetError::Handshake(format!(
            "peer speaks wire version {version}, this build speaks {WIRE_VERSION}"
        )));
    }
    Ok(BlockCodec::parse_header(&payload[2..])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsmooth_data::WindowSpec;
    use cwsmooth_store::Encoding;

    fn codec() -> BlockCodec {
        BlockCodec::new(Encoding::Exact, 2, WindowSpec { wl: 30, ws: 10 }).unwrap()
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        let mut bytes = Vec::new();
        let payloads: [(FrameKind, u64, Vec<u8>); 4] = [
            (FrameKind::Hello, 0, hello_payload(&codec())),
            (FrameKind::Data, 1, vec![7u8; 33]),
            (FrameKind::Ack, 1, Vec::new()),
            (FrameKind::Bye, 1, Vec::new()),
        ];
        for (kind, seq, payload) in &payloads {
            encode_frame(&mut bytes, *kind, *seq, payload).unwrap();
        }
        let mut at = 0usize;
        for (kind, seq, payload) in &payloads {
            let (frame, next) = parse_frame(&bytes, at).unwrap().unwrap();
            assert_eq!(frame.kind, *kind);
            assert_eq!(frame.seq, *seq);
            assert_eq!(frame.payload, &payload[..]);
            at = next;
        }
        assert!(parse_frame(&bytes, at).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn hello_roundtrip_and_version_gate() {
        let c = codec();
        let payload = hello_payload(&c);
        assert_eq!(payload.len(), HELLO_LEN);
        assert_eq!(parse_hello(&payload).unwrap(), c);
        let mut wrong = payload.clone();
        wrong[0] = 99;
        assert!(matches!(parse_hello(&wrong), Err(NetError::Handshake(_))));
        // A version-1 peer sends one block per frame: rejected, not
        // misread.
        let mut v1 = payload.clone();
        v1[..2].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(parse_hello(&v1), Err(NetError::Handshake(_))));
        assert!(parse_hello(&payload[..HELLO_LEN - 1]).is_err());
    }

    #[test]
    fn oversized_payload_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, FrameKind::Data, 1, &[1, 2, 3]).unwrap();
        // Claim a preposterous payload length and fix up the CRC: the
        // bound must trip on the field value itself.
        bytes[16..20].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let err = parse_frame(&bytes, 0).unwrap_err();
        assert!(matches!(err, NetError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn encode_rejects_oversized_payload() {
        let mut bytes = Vec::new();
        let huge = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert!(encode_frame(&mut bytes, FrameKind::Data, 1, &huge).is_err());
    }
}
