//! Public `.cws` block codec for transports and sidecar files.
//!
//! The segment file format lives in the private `format` module; this
//! module re-packages its header and block primitives behind a
//! [`BlockCodec`] handle so other crates (notably `cwsmooth-net`, which
//! frames blocks over sockets, and its spill queue) can encode and decode
//! individual `.cws` blocks without going through a
//! [`SignatureStore`](crate::SignatureStore). The byte layout is exactly
//! the on-disk one —
//! a stream of codec-encoded blocks prefixed by [`BlockCodec::header_bytes`]
//! is a valid `.cws` segment file.
//!
//! Inputs that do not come from a file still need a location for error
//! reports; decoding errors here carry the synthetic path `<codec>`.

use crate::error::{Result, StoreError};
use crate::format::{self, Encoding, FileHeader};
use cwsmooth_data::WindowSpec;
use std::path::Path;

/// Length in bytes of the serialized geometry header
/// ([`BlockCodec::header_bytes`]).
pub const HEADER_LEN: usize = format::FILE_HEADER_LEN;

/// Synthetic path used in `Corrupt` errors for non-file inputs.
const CODEC_PATH: &str = "<codec>";

/// Stream geometry (encoding mode, signature length, window spec) plus
/// the block encode/decode entry points that depend on it.
///
/// Two codecs are equal exactly when their byte streams are
/// interchangeable, which is what a transport handshake needs to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCodec {
    header: FileHeader,
}

impl BlockCodec {
    /// Creates a codec for signatures of `l` complex components encoded
    /// as `mode`, produced by windows of geometry `spec`.
    pub fn new(mode: Encoding, l: usize, spec: WindowSpec) -> Result<Self> {
        if l == 0 || l > format::MAX_L as usize {
            return Err(StoreError::Invalid(format!(
                "signature block count {l} outside 1..={}",
                format::MAX_L
            )));
        }
        if spec.wl == 0
            || spec.ws == 0
            || spec.wl > u32::MAX as usize
            || spec.ws > u32::MAX as usize
        {
            return Err(StoreError::Invalid(format!(
                "window spec {}x{} does not fit the header",
                spec.wl, spec.ws
            )));
        }
        Ok(Self {
            header: FileHeader::current(mode, l as u32, spec.wl as u32, spec.ws as u32),
        })
    }

    /// Value encoding mode.
    pub fn mode(&self) -> Encoding {
        self.header.mode
    }

    /// Signature block count `l` (signatures hold `2l` values).
    pub fn l(&self) -> usize {
        self.header.l as usize
    }

    /// Values per signature (`2l`).
    pub fn dim(&self) -> usize {
        2 * self.header.l as usize
    }

    /// Window geometry the signatures were computed over.
    pub fn spec(&self) -> WindowSpec {
        WindowSpec {
            wl: self.header.wl as usize,
            ws: self.header.ws as usize,
        }
    }

    /// Serializes the versioned geometry header — magic, version, mode,
    /// `l`, window spec, CRC — exactly as written at the start of every
    /// `.cws` segment file. Always [`HEADER_LEN`] bytes.
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        self.header.write_to(&mut out);
        out
    }

    /// Parses and validates a geometry header produced by
    /// [`BlockCodec::header_bytes`] (equivalently: a `.cws` file header).
    /// Errors carry the synthetic path `<codec>`.
    pub fn parse_header(bytes: &[u8]) -> Result<Self> {
        let header = FileHeader::parse(bytes, Path::new(CODEC_PATH))?;
        Ok(Self { header })
    }

    /// Encodes one block — `node`'s signatures over the strictly
    /// increasing `windows`, values event-major `[re..., im...]` with
    /// `windows.len() * 2l` entries — and appends it to `out`. The bytes
    /// are exactly what a store with this geometry would write.
    pub fn encode_block(
        &self,
        out: &mut Vec<u8>,
        node: u32,
        windows: &[u64],
        values: &[f64],
    ) -> Result<()> {
        format::encode_block(out, &self.header, node, windows, values)
    }

    /// Decodes the block starting at byte `at` of a multi-block stream
    /// (a headerless `.cws` body, such as a wire data frame's payload).
    /// Returns `Ok(None)` at a clean end of stream (`at == bytes.len()`);
    /// otherwise appends the block's window axis to `windows` and its
    /// values to `values` (`count * 2l` entries) and returns its node id
    /// plus the offset of the next block. Any damage — truncation
    /// mid-block, bit flips, implausible field values — surfaces
    /// [`StoreError::Corrupt`], never a panic.
    pub fn decode_block_at(
        &self,
        bytes: &[u8],
        at: usize,
        windows: &mut Vec<u64>,
        values: &mut Vec<f64>,
    ) -> Result<Option<(u32, usize)>> {
        let path = Path::new(CODEC_PATH);
        let Some(block) = format::parse_block(bytes, at as u64, &self.header)
            .map_err(|e| e.into_store_error(path))?
        else {
            return Ok(None);
        };
        format::decode_block(&block, &self.header, windows, values);
        Ok(Some((block.node, block.end as usize)))
    }
}

/// The store's CRC-32 (IEEE) over `bytes` — shared so wire framing uses
/// the same checksum as the on-disk format.
pub fn crc32(bytes: &[u8]) -> u32 {
    crate::crc::crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec(mode: Encoding, l: usize) -> BlockCodec {
        BlockCodec::new(mode, l, WindowSpec { wl: 30, ws: 10 }).unwrap()
    }

    #[test]
    fn header_roundtrip_preserves_geometry() {
        for mode in [Encoding::Exact, Encoding::Quant8, Encoding::Quant16] {
            let c = codec(mode, 5);
            let bytes = c.header_bytes();
            assert_eq!(bytes.len(), HEADER_LEN);
            let back = BlockCodec::parse_header(&bytes).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.mode(), mode);
            assert_eq!(back.l(), 5);
            assert_eq!(back.dim(), 10);
            assert_eq!(back.spec(), WindowSpec { wl: 30, ws: 10 });
        }
    }

    #[test]
    fn block_roundtrip_is_exact() {
        let c = codec(Encoding::Exact, 3);
        let windows = [7u64, 8, 12];
        let values: Vec<f64> = (0..18).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut bytes = Vec::new();
        c.encode_block(&mut bytes, 42, &windows, &values).unwrap();
        let (mut w, mut v) = (Vec::new(), Vec::new());
        let decoded = c.decode_block_at(&bytes, 0, &mut w, &mut v).unwrap();
        assert_eq!(decoded, Some((42, bytes.len())));
        assert!(c
            .decode_block_at(&bytes, bytes.len(), &mut w, &mut v)
            .unwrap()
            .is_none());
        assert_eq!(w, windows);
        assert!(v
            .iter()
            .zip(&values)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let c = codec(Encoding::Exact, 1);
        let mut bytes = Vec::new();
        c.encode_block(&mut bytes, 0, &[1], &[0.5, -0.5]).unwrap();
        let end = bytes.len();
        bytes.push(0);
        let (mut w, mut v) = (Vec::new(), Vec::new());
        assert_eq!(
            c.decode_block_at(&bytes, 0, &mut w, &mut v).unwrap(),
            Some((0, end))
        );
        // A stray byte after the last block is a truncated block.
        assert!(matches!(
            c.decode_block_at(&bytes, end, &mut w, &mut v),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(BlockCodec::new(Encoding::Exact, 0, WindowSpec { wl: 30, ws: 10 }).is_err());
        assert!(BlockCodec::new(
            Encoding::Exact,
            (format::MAX_L + 1) as usize,
            WindowSpec { wl: 30, ws: 10 }
        )
        .is_err());
    }
}
