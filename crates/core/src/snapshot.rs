//! Serialization of an [`InvertedIndex`] into the page-structured
//! snapshot container of `setsim-storage`.
//!
//! The container (`setsim_storage::snapshot`) supplies the physical
//! layer: header, CRC-sealed pages, footer, trailer. This module supplies
//! the logical layer on top:
//!
//! * **Posting pages** — each weight-sorted list is split into blocks no
//!   larger than one page, delta+varint encoded
//!   (`setsim_collections::codec`): the block's first `len`-bits key
//!   absolute, subsequent keys as deltas (nonnegative, because lists are
//!   sorted by ascending `len`), ids raw. Blocks are packed back to back
//!   into pages — the directory records each block's `(page, offset)` —
//!   so the many short lists of a q-gram index share pages instead of
//!   wasting a page each; a block never straddles a page boundary.
//! * **The footer** — everything needed to rebuild the serving state:
//!   the tokenizer's [`TokenizerSpec`], the dictionary strings in id
//!   order, record texts and token multisets, the [`IndexOptions`], and
//!   a per-list directory of `(first len → page, count)` block entries —
//!   the fence keys that preserve the Length Boundedness seek pattern on
//!   disk.
//!
//! Loading recomputes IDF weights, set lengths, id-sorted list copies,
//! fence keys, and hash indexes with the same deterministic code the
//! build path uses, so a loaded index answers every query bit-identically
//! to the index that was saved (`tests/snapshot_equivalence.rs` enforces
//! this across all eight algorithms). Decoded postings are cross-checked
//! against the recomputed lengths: a file that checksums correctly but
//! is internally inconsistent is rejected as
//! [`SnapshotError::Corrupt`], never served.

use crate::{IndexOptions, InvertedIndex, Posting, ReprKind, ReprPolicy, SetCollection, SetId};
use setsim_collections::codec::{
    read_varint, write_str, write_u32_le, write_u64_le, write_varint, ByteReader,
};
use setsim_storage::{SnapshotError, SnapshotReader, SnapshotWriter};
use setsim_tokenize::{Dictionary, Token, TokenMultiSet, TokenizerSpec};
use std::path::Path;

/// Default snapshot page size in bytes (one OS page).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

const SPEC_TAG_QGRAM: u8 = 0;
const SPEC_TAG_WORD: u8 = 1;

fn corrupt(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        detail: detail.into(),
    }
}

fn encode_spec(out: &mut Vec<u8>, spec: &TokenizerSpec) {
    match *spec {
        TokenizerSpec::QGram { q, pad, lowercase } => {
            out.push(SPEC_TAG_QGRAM);
            write_varint(out, q as u64);
            match pad {
                Some(c) => {
                    out.push(1);
                    write_u32_le(out, c as u32);
                }
                None => out.push(0),
            }
            out.push(u8::from(lowercase));
        }
        TokenizerSpec::Word {
            lowercase,
            keep_digits,
        } => {
            out.push(SPEC_TAG_WORD);
            out.push(u8::from(lowercase));
            out.push(u8::from(keep_digits));
        }
    }
}

fn read_spec(r: &mut ByteReader<'_>) -> Result<TokenizerSpec, SnapshotError> {
    match r.u8()? {
        SPEC_TAG_QGRAM => {
            let q =
                usize::try_from(r.varint()?).map_err(|_| corrupt("tokenizer q overflows usize"))?;
            if q == 0 {
                return Err(corrupt("tokenizer q must be positive"));
            }
            let pad = if r.bool()? {
                let raw = r.u32_le()?;
                Some(
                    char::from_u32(raw)
                        .ok_or_else(|| corrupt(format!("invalid pad character scalar {raw:#x}")))?,
                )
            } else {
                None
            };
            let lowercase = r.bool()?;
            Ok(TokenizerSpec::QGram { q, pad, lowercase })
        }
        SPEC_TAG_WORD => {
            let lowercase = r.bool()?;
            let keep_digits = r.bool()?;
            Ok(TokenizerSpec::Word {
                lowercase,
                keep_digits,
            })
        }
        tag => Err(corrupt(format!("unknown tokenizer spec tag {tag}"))),
    }
}

fn encode_options(out: &mut Vec<u8>, o: &IndexOptions) {
    out.push(u8::from(o.build_skip_lists));
    write_varint(out, o.skip_stride as u64);
    out.push(u8::from(o.build_hash_indexes));
    write_varint(out, o.hash_bucket_capacity as u64);
    out.push(u8::from(o.build_id_sorted_lists));
}

fn decode_options(r: &mut ByteReader<'_>) -> Result<IndexOptions, SnapshotError> {
    let build_skip_lists = r.bool()?;
    let skip_stride =
        usize::try_from(r.varint()?).map_err(|_| corrupt("skip stride overflows usize"))?;
    let build_hash_indexes = r.bool()?;
    let hash_bucket_capacity = usize::try_from(r.varint()?)
        .map_err(|_| corrupt("hash bucket capacity overflows usize"))?;
    // Loading builds one extendible hash table per list, and a table
    // needs room for at least one entry per bucket.
    if build_hash_indexes && hash_bucket_capacity == 0 {
        return Err(corrupt("hash indexes with a bucket capacity of 0"));
    }
    let build_id_sorted_lists = r.bool()?;
    Ok(IndexOptions::default()
        .with_skip_lists(build_skip_lists)
        .with_skip_stride(skip_stride)
        .with_hash_indexes(build_hash_indexes)
        .with_hash_bucket_capacity(hash_bucket_capacity)
        .with_id_sorted_lists(build_id_sorted_lists))
}

/// How a list's body is laid out in its pages. Pre-kernel snapshots only
/// ever contain [`RunBlocks`](Self::RunBlocks); the footer's
/// representation extension (absent in legacy files, whose decoder
/// therefore defaults every list to `RunBlocks`) records one tag per
/// list. Every kind keys its blocks by the `len`-bits of their first
/// posting, so every list — dense ones included — has a Theorem 1 block
/// window ([`window_blocks`]). A list's in-memory representation is
/// re-derived from its statistics at load, so a dense list stored as run
/// blocks still loads as a bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ListEncoding {
    /// Delta+varint `(len, id)` blocks — the original page kind.
    RunBlocks,
    /// Raw fixed-width `(len-bits, id)` entries: a handful of postings is
    /// cheaper to store verbatim than to delta-code.
    InlineRaw,
}

impl ListEncoding {
    fn tag(self) -> u8 {
        match self {
            ListEncoding::RunBlocks => 0,
            ListEncoding::InlineRaw => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        match tag {
            0 => Ok(ListEncoding::RunBlocks),
            1 => Ok(ListEncoding::InlineRaw),
            // Tag 2 was raw bitmap words, written for dense lists by older
            // builds; their ids carry no length order, so no window applies.
            // This build cannot load such a file, so it cannot re-save it
            // either: the detail names the two ways out.
            2 => Err(SnapshotError::Unsupported {
                detail: "list stored as bitmap-word pages, a page kind written by \
                         older builds that this build no longer reads; rebuild the \
                         index from its records with this build, or load it with an \
                         older build and re-save it with `save_legacy_format` (run \
                         blocks only, which this build loads as Force(Run))"
                    .to_string(),
            }),
            t => Err(corrupt(format!("unknown list encoding tag {t}"))),
        }
    }
}

/// Magic leading the footer's representation extension. Legacy footers
/// end exactly at the list directory; the extension (policy byte plus
/// per-list encoding tags) follows it in post-kernel files.
const REPR_EXTENSION_MAGIC: u32 = 0x5250_5258; // "RPRX"
const REPR_EXTENSION_VERSION: u8 = 1;

fn encode_repr_policy(policy: ReprPolicy) -> u8 {
    match policy {
        ReprPolicy::Adaptive => 0,
        ReprPolicy::Force(ReprKind::Inline) => 1,
        ReprPolicy::Force(ReprKind::Run) => 2,
        ReprPolicy::Force(ReprKind::Bitmap) => 3,
    }
}

fn decode_repr_policy(byte: u8) -> Result<ReprPolicy, SnapshotError> {
    match byte {
        0 => Ok(ReprPolicy::Adaptive),
        1 => Ok(ReprPolicy::Force(ReprKind::Inline)),
        2 => Ok(ReprPolicy::Force(ReprKind::Run)),
        3 => Ok(ReprPolicy::Force(ReprKind::Bitmap)),
        b => Err(corrupt(format!("unknown representation policy byte {b}"))),
    }
}

/// One block of a serialized list: `(first len-bits key, page, offset,
/// count)`. `offset` locates the block inside its (shared) page.
pub(crate) struct BlockRef {
    pub(crate) first_key: u64,
    pub(crate) page: u32,
    pub(crate) offset: u32,
    pub(crate) count: u32,
}

/// Per-list directory entry in the footer.
pub(crate) struct ListRef {
    pub(crate) token: Token,
    pub(crate) postings: u64,
    pub(crate) encoding: ListEncoding,
    pub(crate) blocks: Vec<BlockRef>,
}

/// Packs encoded blocks back to back into sealed pages. A page is flushed
/// only once the next block no longer fits, so short lists share pages; a
/// block never straddles a page boundary.
struct PagePacker<'w> {
    writer: &'w mut SnapshotWriter,
    buf: Vec<u8>,
}

impl<'w> PagePacker<'w> {
    fn new(writer: &'w mut SnapshotWriter) -> Self {
        let cap = writer.page_capacity();
        Self {
            writer,
            buf: Vec::with_capacity(cap),
        }
    }

    fn capacity(&self) -> usize {
        self.writer.page_capacity()
    }

    /// Append one block, flushing the current page first if it would not
    /// fit; returns the `(page, offset)` the block will occupy.
    fn place(&mut self, block: &[u8]) -> Result<(u32, u32), SnapshotError> {
        if self.buf.len() + block.len() > self.capacity() {
            self.flush()?;
        }
        let page =
            u32::try_from(self.writer.pages_written()).map_err(|_| SnapshotError::Unsupported {
                detail: "snapshot exceeds u32 page count".to_string(),
            })?;
        let offset = self.buf.len() as u32;
        self.buf.extend_from_slice(block);
        Ok((page, offset))
    }

    /// Seal any buffered bytes as a final (padded) page.
    fn flush(&mut self) -> Result<(), SnapshotError> {
        if !self.buf.is_empty() {
            self.writer.write_page(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Split one `(len, id)`-sorted list into delta+varint blocks of at most
/// one page and hand them to the packer.
fn write_list_pages(
    packer: &mut PagePacker<'_>,
    postings: &[Posting],
) -> Result<Vec<BlockRef>, SnapshotError> {
    let capacity = packer.capacity();
    let mut blocks = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(capacity);
    let mut scratch: Vec<u8> = Vec::new();
    let mut block_first: Option<u64> = None;
    let mut block_count = 0u32;
    let mut prev_key = 0u64;
    for p in postings {
        let key = p.len.to_bits();
        scratch.clear();
        match block_first {
            None => write_varint(&mut scratch, key),
            Some(_) => write_varint(&mut scratch, key - prev_key),
        }
        write_varint(&mut scratch, u64::from(p.id.0));
        if scratch.len() > capacity {
            return Err(SnapshotError::Unsupported {
                detail: format!("page capacity {capacity} below one posting"),
            });
        }
        if buf.len() + scratch.len() > capacity {
            // Close the current block and restart with an absolute key.
            if let Some(first_key) = block_first {
                let (page, offset) = packer.place(&buf)?;
                blocks.push(BlockRef {
                    first_key,
                    page,
                    offset,
                    count: block_count,
                });
            }
            buf.clear();
            block_first = None;
            block_count = 0;
            scratch.clear();
            write_varint(&mut scratch, key);
            write_varint(&mut scratch, u64::from(p.id.0));
        }
        if block_first.is_none() {
            block_first = Some(key);
        }
        buf.extend_from_slice(&scratch);
        block_count += 1;
        prev_key = key;
    }
    if let Some(first_key) = block_first {
        let (page, offset) = packer.place(&buf)?;
        blocks.push(BlockRef {
            first_key,
            page,
            offset,
            count: block_count,
        });
    }
    Ok(blocks)
}

/// Bytes per [`ListEncoding::InlineRaw`] entry: `u64` len-bits plus
/// `u32` id, both little-endian.
const INLINE_ENTRY_BYTES: usize = 12;

/// Write an inline list as raw fixed-width entries (no delta coding —
/// a handful of postings is cheaper verbatim), as many per block as fit
/// one page.
fn write_inline_pages(
    packer: &mut PagePacker<'_>,
    postings: &[Posting],
) -> Result<Vec<BlockRef>, SnapshotError> {
    let capacity = packer.capacity();
    let per_block = capacity / INLINE_ENTRY_BYTES;
    if per_block == 0 {
        return Err(SnapshotError::Unsupported {
            detail: format!("page capacity {capacity} below one inline posting"),
        });
    }
    let mut blocks = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(capacity);
    for chunk in postings.chunks(per_block) {
        buf.clear();
        for p in chunk {
            write_u64_le(&mut buf, p.len.to_bits());
            write_u32_le(&mut buf, p.id.0);
        }
        let (page, offset) = packer.place(&buf)?;
        blocks.push(BlockRef {
            first_key: chunk[0].len.to_bits(),
            page,
            offset,
            count: chunk.len() as u32,
        });
    }
    Ok(blocks)
}

fn encode_footer(
    index: &InvertedIndex<'_>,
    spec: &TokenizerSpec,
    directory: &[ListRef],
    legacy_format: bool,
) -> Vec<u8> {
    let collection = index.collection();
    let mut out = Vec::new();
    encode_spec(&mut out, spec);

    write_varint(&mut out, collection.dict().len() as u64);
    for (_, s) in collection.dict().iter() {
        write_str(&mut out, s);
    }

    write_varint(&mut out, collection.texts().len() as u64);
    for t in collection.texts() {
        write_str(&mut out, t);
    }

    write_varint(&mut out, collection.multisets().len() as u64);
    for ms in collection.multisets() {
        write_varint(&mut out, ms.distinct_len() as u64);
        let mut prev = 0u64;
        for (i, (token, freq)) in ms.iter().enumerate() {
            let t = u64::from(token.0);
            // Tokens ascend strictly; delta-encode like the posting pages.
            if i == 0 {
                write_varint(&mut out, t);
            } else {
                write_varint(&mut out, t - prev);
            }
            prev = t;
            write_varint(&mut out, u64::from(freq));
        }
    }

    encode_options(&mut out, index.options());

    write_varint(&mut out, directory.len() as u64);
    for list in directory {
        write_varint(&mut out, u64::from(list.token.0));
        write_varint(&mut out, list.postings);
        write_varint(&mut out, list.blocks.len() as u64);
        for b in &list.blocks {
            write_u64_le(&mut out, b.first_key);
            write_u32_le(&mut out, b.page);
            write_varint(&mut out, u64::from(b.offset));
            write_varint(&mut out, u64::from(b.count));
        }
    }

    // Representation extension (absent in the legacy format): the policy
    // plus one encoding tag per directory entry. Legacy decoders reject
    // trailing footer bytes, so the legacy writer must omit it entirely;
    // the current decoder treats a footer ending at the directory as
    // "all lists are delta+varint runs".
    if !legacy_format {
        write_u32_le(&mut out, REPR_EXTENSION_MAGIC);
        out.push(REPR_EXTENSION_VERSION);
        out.push(encode_repr_policy(index.options().repr_policy));
        for list in directory {
            out.push(list.encoding.tag());
        }
    }
    out
}

/// Serialize `index` to `path`. See the module docs for the layout.
pub(crate) fn save_index(
    index: &InvertedIndex<'_>,
    path: &Path,
    page_size: usize,
) -> Result<(), SnapshotError> {
    save_index_with_format(index, path, page_size, false)
}

/// Serialize `index` in the **pre-kernel** snapshot format: every list as
/// delta+varint run blocks and no representation extension in the footer,
/// byte-compatible with what older builds wrote. Exists so compatibility
/// tests can produce genuine legacy files; production code has no reason
/// to call it.
#[doc(hidden)]
pub fn save_legacy_format(
    index: &InvertedIndex<'_>,
    path: &Path,
    page_size: usize,
) -> Result<(), SnapshotError> {
    save_index_with_format(index, path, page_size, true)
}

fn save_index_with_format(
    index: &InvertedIndex<'_>,
    path: &Path,
    page_size: usize,
    legacy_format: bool,
) -> Result<(), SnapshotError> {
    let spec = index
        .collection()
        .tokenizer()
        .spec()
        .ok_or_else(|| SnapshotError::Unsupported {
            detail: "the collection's tokenizer has no serializable spec \
                     (Tokenizer::spec returned None)"
                .to_string(),
        })?;

    let mut writer = SnapshotWriter::create(path, page_size)?;

    // Token order makes the file deterministic for identical indexes.
    let mut lists: Vec<_> = index.iter_lists().collect();
    lists.sort_by_key(|(t, _)| *t);

    let mut directory = Vec::with_capacity(lists.len());
    {
        let mut packer = PagePacker::new(&mut writer);
        for (token, list) in lists {
            // Inline lists are stored verbatim; every other list, dense
            // ones included, as run blocks in `(len, id)` order. The legacy
            // format predates every kind but run blocks (and run blocks
            // encode any list's postings).
            let (encoding, blocks) = match (legacy_format, list.repr()) {
                (false, ReprKind::Inline) => (
                    ListEncoding::InlineRaw,
                    write_inline_pages(&mut packer, list.postings())?,
                ),
                _ => (
                    ListEncoding::RunBlocks,
                    write_list_pages(&mut packer, list.postings())?,
                ),
            };
            directory.push(ListRef {
                token,
                postings: list.len() as u64,
                encoding,
                blocks,
            });
        }
        packer.flush()?;
    }

    let footer = encode_footer(index, &spec, &directory, legacy_format);
    writer.finish(&footer)?;
    Ok(())
}

/// Everything the footer describes, in decode order: tokenizer spec,
/// interned dictionary, record texts, token multisets, index options,
/// and the posting-list directory.
pub(crate) type DecodedFooter = (
    TokenizerSpec,
    Dictionary,
    Vec<String>,
    Vec<TokenMultiSet>,
    IndexOptions,
    Vec<ListRef>,
);

/// Decode the footer, sizing every allocation by a bounded count
/// (DESIGN.md §10). A list holds each set at most once, so its posting
/// count cannot exceed the collection; every window decoded from the list
/// is sized by that count.
pub(crate) fn decode_footer(buf: &[u8]) -> Result<DecodedFooter, SnapshotError> {
    let mut r = ByteReader::new(buf);
    let spec = read_spec(&mut r)?;

    let dict_len = r.count(1)?;
    let mut dict = Dictionary::with_capacity(dict_len);
    for i in 0..dict_len {
        let s = r.str()?;
        dict.intern(s);
        if dict.len() != i + 1 {
            return Err(corrupt(format!("duplicate dictionary entry {s:?}")));
        }
    }

    let num_texts = r.count(1)?;
    let mut texts = Vec::with_capacity(num_texts);
    for _ in 0..num_texts {
        texts.push(r.str()?.to_string());
    }

    let num_ms = r.count(1)?;
    if num_ms != num_texts {
        return Err(corrupt(format!("{num_ms} multisets for {num_texts} texts")));
    }
    let mut multisets = Vec::with_capacity(num_ms);
    for i in 0..num_ms {
        // Each entry is a token delta and a frequency.
        let distinct = r.count(2)?;
        let mut entries = Vec::with_capacity(distinct);
        // Token ids ascend: each is the previous one plus its delta.
        let mut t = 0u64;
        for _ in 0..distinct {
            t = t
                .checked_add(r.varint()?)
                .ok_or_else(|| corrupt("multiset token id overflows"))?;
            let freq = r.varint_u32()?;
            let token = u32::try_from(t).map_err(|_| corrupt("token id overflows u32"))?;
            if (token as usize) >= dict.len() {
                return Err(corrupt(format!(
                    "multiset {i} references token {token} outside the dictionary"
                )));
            }
            entries.push((Token(token), freq));
        }
        let ms = TokenMultiSet::from_entries(entries)
            .ok_or_else(|| corrupt(format!("multiset {i} entries not sorted/positive")))?;
        multisets.push(ms);
    }

    let options = decode_options(&mut r)?;

    // Each list is a token, a posting count and a block count.
    let num_lists = r.count(3)?;
    let mut directory = Vec::with_capacity(num_lists);
    let mut prev_token: Option<u32> = None;
    for i in 0..num_lists {
        let token = r.varint_u32()?;
        if (token as usize) >= dict.len() {
            return Err(corrupt(format!(
                "directory references token {token} outside the dictionary"
            )));
        }
        if prev_token.is_some_and(|p| p >= token) {
            return Err(corrupt("directory tokens not strictly increasing"));
        }
        prev_token = Some(token);
        let postings = r.varint()?;
        if postings > texts.len() as u64 {
            return Err(corrupt(format!(
                "list {i} claims {postings} postings for {} sets",
                texts.len()
            )));
        }
        // A block is its first key, page, offset and count.
        let num_blocks = r.count(8 + 4 + 1 + 1)?;
        let mut blocks = Vec::with_capacity(num_blocks);
        for _ in 0..num_blocks {
            blocks.push(BlockRef {
                first_key: r.u64_le()?,
                page: r.u32_le()?,
                offset: r.varint_u32()?,
                count: r.varint_u32()?,
            });
        }
        directory.push(ListRef {
            token: Token(token),
            postings,
            encoding: ListEncoding::RunBlocks,
            blocks,
        });
    }

    // Representation extension. A legacy footer ends exactly at the
    // directory: default to the pre-kernel reading (every list a sorted
    // run, forced) so a legacy file loads into bit-identical serving
    // structures. Anything else must be a well-formed extension.
    let mut options = options;
    if r.remaining() == 0 {
        options = options.with_repr_policy(ReprPolicy::Force(ReprKind::Run));
    } else {
        let magic = r.u32_le()?;
        if magic != REPR_EXTENSION_MAGIC {
            return Err(corrupt(format!(
                "unexpected footer extension magic {magic:#010x}"
            )));
        }
        let version = r.u8()?;
        if version != REPR_EXTENSION_VERSION {
            return Err(SnapshotError::Unsupported {
                detail: format!("representation extension version {version}"),
            });
        }
        options = options.with_repr_policy(decode_repr_policy(r.u8()?)?);
        for list in &mut directory {
            list.encoding = ListEncoding::from_tag(r.u8()?)?;
        }
    }
    r.finish()?;
    Ok((spec, dict, texts, multisets, options, directory))
}

/// Where block pages come from during decode. The eager load path reads
/// straight through the [`SnapshotReader`] (via [`PageCache`]); the paged
/// engine faults pages through a bounded buffer pool instead. Either way
/// every fetched page has already had its CRC verified.
pub(crate) trait PageFetch {
    fn fetch(&mut self, id: u32) -> Result<&[u8], SnapshotError>;
}

/// Single-page read cache: consecutive blocks of the directory usually
/// live on the same (shared) page, so one page is fetched and
/// checksum-verified once instead of once per block.
pub(crate) struct PageCache<'r> {
    reader: &'r mut SnapshotReader,
    last: Option<(u32, Vec<u8>)>,
}

impl<'r> PageCache<'r> {
    pub(crate) fn new(reader: &'r mut SnapshotReader) -> Self {
        Self { reader, last: None }
    }
}

impl PageFetch for PageCache<'_> {
    fn fetch(&mut self, id: u32) -> Result<&[u8], SnapshotError> {
        let stale = !matches!(&self.last, Some((p, _)) if *p == id);
        if stale {
            let payload = self.reader.page(id)?;
            self.last = Some((id, payload));
        }
        match &self.last {
            Some((_, payload)) => Ok(payload),
            None => unreachable!("just populated"),
        }
    }
}

/// The contiguous block range of `list` that can hold any posting whose
/// score against a length-`len_q` query is not safely below `tau` —
/// Theorem 1 applied block-by-block using the directory's fence keys.
///
/// Block `i` covers lengths `[first_key_i, first_key_{i+1}]` (the last
/// block is unbounded above); [`crate::LengthBand::score_upper_bound`]
/// bounds the score of every set in that band, and a block is dropped
/// only when that bound is *safely* below `tau` — the prune slack,
/// strictly below the pass line (DESIGN.md §1), so window decoding is
/// bit-identical to whole-list decoding. Every page kind keys its blocks
/// by length, so this holds for every list.
pub(crate) fn window_blocks(list: &ListRef, len_q: f64, tau: f64) -> std::ops::Range<usize> {
    let n = list.blocks.len();
    let mut first = n;
    let mut last = 0usize;
    for i in 0..n {
        let band = crate::LengthBand {
            min_len: f64::from_bits(list.blocks[i].first_key),
            max_len: match list.blocks.get(i + 1) {
                Some(next) => f64::from_bits(next.first_key),
                None => f64::INFINITY,
            },
        };
        if band.may_reach(len_q, tau) {
            first = first.min(i);
            last = i + 1;
        }
    }
    if first >= last {
        0..0
    } else {
        first..last
    }
}

/// Postings in blocks `range` of `list`, by the directory's counts. A
/// window claiming more postings than the whole list is corrupt.
pub(crate) fn window_len(
    list: &ListRef,
    range: std::ops::Range<usize>,
) -> Result<usize, SnapshotError> {
    let blocks = list
        .blocks
        .get(range)
        .ok_or_else(|| corrupt("block range outside the directory"))?;
    let window: u64 = blocks.iter().map(|b| u64::from(b.count)).sum();
    if window > list.postings {
        return Err(corrupt(format!(
            "window of list for token {} has {window} postings, whole directory says {}",
            list.token.0, list.postings
        )));
    }
    usize::try_from(window).map_err(|_| corrupt("posting count overflows usize"))
}

/// Decode the given block range of one list into one vector (the load
/// path, and the paged engine's eager windows). Blocks are appended back
/// to back, so [`decode_block`]'s order check covers the whole range; a
/// complete range must also hold exactly the directory's posting count.
pub(crate) fn read_list_blocks<F: PageFetch>(
    pages: &mut F,
    list: &ListRef,
    range: std::ops::Range<usize>,
    lengths: &[f64],
) -> Result<Vec<Posting>, SnapshotError> {
    let complete = range == (0..list.blocks.len());
    // Sized for the window, not the whole list: at most the directory's
    // posting count, which the footer decode bounded by the collection.
    let window = window_len(list, range.clone())?;
    let mut postings = Vec::with_capacity(window);
    for bi in range {
        let after = postings.last().map(posting_key);
        let payload = pages.fetch(list.blocks[bi].page)?;
        decode_block(payload, list, bi, lengths, after, &mut postings)?;
    }
    if complete && postings.len() as u64 != list.postings {
        return Err(corrupt(format!(
            "list for token {} has {} postings, directory says {}",
            list.token.0,
            postings.len(),
            list.postings
        )));
    }
    Ok(postings)
}

/// A posting's `(len-bits, id)` sort key. Lengths are non-negative, so
/// their bits order like the values.
pub(crate) fn posting_key(p: &Posting) -> (u64, u32) {
    (p.len.to_bits(), p.id.0)
}

/// Decode block `bi` of `list` out of its page's (CRC-verified) payload,
/// appending its postings to `out`: the one block decoder behind the
/// load path and both paged serving paths, so every posting any of them
/// serves has passed the same checks first.
///
/// - The block's first key equals its directory entry's.
/// - Each of the block's `count` entries parses inside the page.
/// - Each set id lies inside the collection.
/// - Each stored length is bit-identical to `lengths` (the set lengths
///   recomputed from the footer), so a cross-wired file (checksums fine,
///   pages from another index) is rejected, not served.
/// - Keys ascend strictly in `(len, id)`, starting above `after` (the
///   key of the posting decoded just before, if any).
/// - The last key does not pass the next block's directory fence, which
///   keeps the fences honest for a seek that skips blocks undecoded.
pub(crate) fn decode_block(
    payload: &[u8],
    list: &ListRef,
    bi: usize,
    lengths: &[f64],
    mut after: Option<(u64, u32)>,
    out: &mut Vec<Posting>,
) -> Result<(), SnapshotError> {
    let b = list
        .blocks
        .get(bi)
        .ok_or_else(|| corrupt("block outside the directory"))?;
    let mut pos = b.offset as usize;
    if pos > payload.len() {
        return Err(corrupt(format!(
            "block offset {pos} outside page {} payload",
            b.page
        )));
    }
    let malformed = |j: u32| corrupt(format!("page {} block entry {j} malformed", b.page));
    let mut key = 0u64;
    for j in 0..b.count {
        let id = match list.encoding {
            ListEncoding::RunBlocks => {
                let delta = read_varint(payload, &mut pos).ok_or_else(|| malformed(j))?;
                key = if j == 0 {
                    delta
                } else {
                    key.checked_add(delta)
                        .ok_or_else(|| corrupt("posting key overflows"))?
                };
                let id = read_varint(payload, &mut pos).ok_or_else(|| malformed(j))?;
                u32::try_from(id).map_err(|_| corrupt("set id overflows u32"))?
            }
            ListEncoding::InlineRaw => {
                let mut entry = ByteReader::new(payload.get(pos..).unwrap_or_default());
                key = entry.u64_le().map_err(|_| malformed(j))?;
                pos += INLINE_ENTRY_BYTES;
                entry.u32_le().map_err(|_| malformed(j))?
            }
        };
        if j == 0 && key != b.first_key {
            return Err(corrupt(format!(
                "page {} first key disagrees with directory",
                b.page
            )));
        }
        let Some(&len) = lengths.get(id as usize) else {
            return Err(corrupt(format!(
                "posting references set {id} outside the collection ({} sets)",
                lengths.len()
            )));
        };
        if key != len.to_bits() {
            return Err(corrupt(format!(
                "stored length of {} in list {} disagrees with the collection",
                SetId(id),
                list.token.0
            )));
        }
        if after.is_some_and(|prev| prev >= (key, id)) {
            return Err(corrupt(format!(
                "list for token {} not strictly (len, id)-sorted",
                list.token.0
            )));
        }
        after = Some((key, id));
        out.push(Posting { id: SetId(id), len });
    }
    if let Some(next) = list.blocks.get(bi + 1) {
        if b.count > 0 && key > next.first_key {
            return Err(corrupt(format!(
                "page {} block of list {} ends past the next block's first key",
                b.page, list.token.0
            )));
        }
    }
    Ok(())
}

/// Load an index from `path`. See [`InvertedIndex::load`].
pub(crate) fn load_index(path: &Path) -> Result<InvertedIndex<'static>, SnapshotError> {
    load_index_impl(path, None)
}

/// Load an index from `path` scoring with an explicit weight table (the
/// sharded open path: the shard manifest carries the corpus-global df
/// table, and every shard must be assembled with it rather than with
/// weights recomputed from its own sub-collection). Checking every
/// decoded posting's stored length against that table's set lengths then
/// also proves it matches the one the shard was built with.
pub(crate) fn load_index_with_weights(
    path: &Path,
    weights: crate::TokenWeights,
) -> Result<InvertedIndex<'static>, SnapshotError> {
    load_index_impl(path, Some(weights))
}

fn load_index_impl(
    path: &Path,
    weights: Option<crate::TokenWeights>,
) -> Result<InvertedIndex<'static>, SnapshotError> {
    let mut reader = SnapshotReader::open(path)?;
    let (spec, dict, texts, multisets, options, directory) = decode_footer(reader.footer())?;
    if let Some(w) = &weights {
        // An externally supplied weight table must cover this file's
        // dictionary exactly, or assembling below would index out of
        // bounds on hostile (checksum-valid but cross-wired) inputs.
        if w.idf_len() != dict.len() {
            return Err(corrupt(format!(
                "weight table covers {} tokens, snapshot dictionary has {}",
                w.idf_len(),
                dict.len()
            )));
        }
    }
    let collection = Box::new(SetCollection::from_parts(
        spec.build(),
        dict,
        texts,
        multisets,
    ));
    // IDF weights, and so set lengths, are a deterministic function of the
    // multisets: every decoded posting is checked against them.
    let weights = weights.unwrap_or_else(|| crate::TokenWeights::compute(&collection));
    let lengths = crate::index::set_lengths(&collection, &weights);

    let mut sorted_lists = Vec::with_capacity(directory.len());
    let mut cache = PageCache::new(&mut reader);
    for list in &directory {
        let postings = read_list_blocks(&mut cache, list, 0..list.blocks.len(), &lengths)?;
        sorted_lists.push((list.token, postings));
    }
    Ok(InvertedIndex::assemble_owned_with_weights(
        collection,
        options,
        sorted_lists,
        weights,
        lengths,
    ))
}

/// What [`verify`] found in a checksum-clean, logically consistent snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Number of sealed posting pages.
    pub pages: u64,
    /// Page size in bytes.
    pub page_size: usize,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Records in the serialized collection.
    pub records: usize,
    /// Distinct tokens in the serialized dictionary.
    pub tokens: usize,
    /// Total postings across all lists.
    pub postings: u64,
    /// Smallest buffer pool (in pages) that decodes the widest single
    /// list without evicting mid-list: the maximum number of distinct
    /// pages any one list's blocks span. Pools below this still work —
    /// blocks are decoded one page at a time — but thrash inside a
    /// single list; pools at or above it guarantee each faulted page is
    /// read at most once per list.
    pub min_pool_pages: usize,
}

/// Distinct pages spanned by one list's blocks. The packer places blocks
/// in nondecreasing page order, so page transitions count pages.
fn list_page_span(list: &ListRef) -> usize {
    let mut span = 0usize;
    let mut prev: Option<u32> = None;
    for b in &list.blocks {
        if prev != Some(b.page) {
            span += 1;
            prev = Some(b.page);
        }
    }
    span
}

/// Fully verify the snapshot at `path`: container structure, every page
/// checksum, and logical consistency (the file must load into a working
/// index). Returns a [`SnapshotSummary`] on success and the first typed
/// [`SnapshotError`] otherwise.
pub fn verify(path: &Path) -> Result<SnapshotSummary, SnapshotError> {
    let mut reader = SnapshotReader::open(path)?;
    let pages = reader.verify_all_pages()?;
    let layout = reader.layout();
    let (_, _, _, _, _, directory) = decode_footer(reader.footer())?;
    let min_pool_pages = directory
        .iter()
        .map(list_page_span)
        .max()
        .unwrap_or(0)
        .max(1);
    let index = load_index(path)?;
    Ok(SnapshotSummary {
        pages,
        page_size: layout.page_size,
        file_len: layout.file_len,
        records: index.collection().len(),
        tokens: index.collection().dict().len(),
        postings: index.total_postings(),
        min_pool_pages,
    })
}

/// Rewrite the footer of the snapshot at `path` with `edit`, which may
/// change its length, and reseal the trailer (footer length and CRC):
/// the file a hostile or older writer could produce, checksums intact.
#[cfg(test)]
pub(crate) fn reseal_footer(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let layout = SnapshotReader::open(path).expect("open").layout();
    let bytes = std::fs::read(path).expect("read");
    let start = usize::try_from(layout.footer_offset).expect("offset");
    let end = start + usize::try_from(layout.footer_len).expect("len");
    let mut footer = bytes[start..end].to_vec();
    edit(&mut footer);
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(&footer);
    // Trailer: footer offset (u64), footer length (u64), footer CRC (u32),
    // magic.
    out.extend_from_slice(&bytes[end..end + 8]);
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(&setsim_collections::checksum::crc32(&footer).to_le_bytes());
    out.extend_from_slice(&bytes[end + 20..]);
    std::fs::write(path, &out).expect("rewrite");
}

/// The tokenizer spec at `pos` of a footer, advancing `pos` past it.
#[cfg(test)]
pub(crate) fn decode_spec(buf: &[u8], pos: &mut usize) -> Result<TokenizerSpec, SnapshotError> {
    let mut r = ByteReader::new(buf);
    r.take(*pos)?;
    let spec = read_spec(&mut r)?;
    *pos = buf.len() - r.remaining();
    Ok(spec)
}

/// Rewrite the snapshot at `path` so that its last list carries encoding
/// tag 2, the retired bitmap-word page kind, and reseal the footer CRC:
/// what a file an older build wrote with a dense last list looks like to
/// the footer decoder.
#[cfg(test)]
pub(crate) fn retag_last_list_as_bitmap_words(path: &Path) {
    // The footer ends with one encoding tag per list.
    reseal_footer(path, |footer| *footer.last_mut().expect("tags") = 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectionBuilder;
    use setsim_tokenize::{QGramTokenizer, Tokenizer};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "setsim-core-snap-{}-{tag}-{n}.snap",
            std::process::id()
        ))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn collection(texts: &[&str]) -> SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    #[test]
    fn round_trip_preserves_index_shape() {
        let c = collection(&["main street", "main st", "maine", "park avenue"]);
        let built = InvertedIndex::build(&c, IndexOptions::default());
        let t = TempFile(temp_path("shape"));
        built.save(&t.0).expect("save");
        let loaded = InvertedIndex::load(&t.0).expect("load");
        assert_eq!(loaded.num_lists(), built.num_lists());
        assert_eq!(loaded.total_postings(), built.total_postings());
        assert_eq!(loaded.collection().len(), c.len());
        for (token, list) in built.iter_lists() {
            let l = loaded.list(token).expect("token survives");
            assert_eq!(l.postings(), list.postings(), "token {token:?}");
            assert_eq!(l.postings_by_id(), list.postings_by_id());
        }
        for id in 0..c.len() as u32 {
            let id = SetId(id);
            assert_eq!(loaded.collection().text(id), c.text(id));
            assert_eq!(loaded.set_len(id).to_bits(), built.set_len(id).to_bits());
        }
    }

    #[test]
    fn tiny_pages_straddle_blocks() {
        // With the minimum page size every block holds only a couple of
        // postings, so multi-page lists (block straddling) are exercised.
        let texts: Vec<String> = (0..40).map(|i| format!("record {i:03}")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let c = collection(&refs);
        let built = InvertedIndex::build(&c, IndexOptions::default());
        let t = TempFile(temp_path("tiny"));
        built
            .save_with_page_size(&t.0, setsim_storage::snapshot::MIN_PAGE_SIZE)
            .expect("save");
        let loaded = InvertedIndex::load(&t.0).expect("load");
        for (token, list) in built.iter_lists() {
            assert_eq!(
                loaded.list(token).expect("token").postings(),
                list.postings()
            );
        }
    }

    #[test]
    fn empty_and_single_token_indexes_round_trip() {
        for texts in [&[][..], &["aaa"][..]] {
            let c = collection(texts);
            let built = InvertedIndex::build(&c, IndexOptions::default());
            let t = TempFile(temp_path("small"));
            built.save(&t.0).expect("save");
            let loaded = InvertedIndex::load(&t.0).expect("load");
            assert_eq!(loaded.num_lists(), built.num_lists());
            assert_eq!(loaded.collection().len(), texts.len());
        }
    }

    #[test]
    fn unsupported_tokenizer_is_a_typed_save_error() {
        struct Opaque;
        impl Tokenizer for Opaque {
            fn tokenize_into(&self, text: &str, out: &mut Vec<String>) {
                out.push(text.to_string());
            }
        }
        let mut b = CollectionBuilder::new(Opaque);
        b.add("whole-string-token");
        let c = b.build();
        let idx = InvertedIndex::build(&c, IndexOptions::default());
        let t = TempFile(temp_path("opaque"));
        assert!(matches!(
            idx.save(&t.0),
            Err(SnapshotError::Unsupported { .. })
        ));
        assert!(
            !t.0.exists() || std::fs::metadata(&t.0).map_or(0, |m| m.len()) == 0 || {
                // Save may have created the file before discovering the
                // tokenizer is unsupported; whatever remains must not load.
                InvertedIndex::load(&t.0).is_err()
            }
        );
    }

    #[test]
    fn verify_reports_summary_and_rejects_damage() {
        let c = collection(&["main street", "main st", "park avenue"]);
        let built = InvertedIndex::build(&c, IndexOptions::default());
        let t = TempFile(temp_path("verify"));
        built.save(&t.0).expect("save");
        let summary = verify(&t.0).expect("clean snapshot verifies");
        assert_eq!(summary.records, 3);
        assert_eq!(summary.tokens, c.dict().len());
        assert_eq!(summary.postings, built.total_postings());
        assert_eq!(
            summary.file_len,
            std::fs::metadata(&t.0).expect("meta").len()
        );

        // Any single flipped byte must turn verify into a typed error.
        let mut bytes = std::fs::read(&t.0).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&t.0, &bytes).expect("rewrite");
        assert!(verify(&t.0).is_err());
    }

    #[test]
    fn bitmap_word_pages_are_a_typed_unsupported_error() {
        let c = collection(&["main street", "main st", "maine", "park avenue"]);
        let built = InvertedIndex::build(&c, IndexOptions::default());
        let t = TempFile(temp_path("tag2"));
        built.save(&t.0).expect("save");
        let footer = SnapshotReader::open(&t.0).expect("open").footer().to_vec();
        decode_footer(&footer).expect("clean footer decodes");
        retag_last_list_as_bitmap_words(&t.0);
        let footer = SnapshotReader::open(&t.0)
            .expect("resealed")
            .footer()
            .to_vec();
        let decoded = decode_footer(&footer).map(|_| ());
        for result in [decoded, InvertedIndex::load(&t.0).map(|_| ())] {
            match result {
                Err(SnapshotError::Unsupported { detail }) => {
                    assert!(detail.contains("bitmap-word pages"), "{detail}");
                    assert!(detail.contains("rebuild the index"), "{detail}");
                    assert!(detail.contains("save_legacy_format"), "{detail}");
                }
                other => panic!("tag 2 must be Unsupported, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn hostile_dictionary_count_is_corrupt_not_a_panic() {
        let c = collection(&["main street", "park avenue"]);
        let t = TempFile(temp_path("dictcount"));
        InvertedIndex::build(&c, IndexOptions::default())
            .save(&t.0)
            .expect("save");
        // The dictionary count follows the tokenizer spec. Set it to
        // u64::MAX and reseal: every checksum holds, the count does not.
        reseal_footer(&t.0, |footer| {
            let mut pos = 0;
            decode_spec(footer, &mut pos).expect("spec");
            let start = pos;
            read_varint(footer, &mut pos).expect("count");
            let mut count = Vec::new();
            write_varint(&mut count, u64::MAX);
            footer.splice(start..pos, count);
        });
        assert!(matches!(
            InvertedIndex::load(&t.0),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn garbage_file_is_a_typed_load_error() {
        let t = TempFile(temp_path("garbage"));
        std::fs::write(&t.0, b"definitely not a snapshot").expect("write");
        assert!(matches!(
            InvertedIndex::load(&t.0),
            Err(SnapshotError::Truncated { .. } | SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            InvertedIndex::load(Path::new("/nonexistent/setsim.snap")),
            Err(SnapshotError::Io(_))
        ));
    }
}
