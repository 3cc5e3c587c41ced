//! Wire-shape abstract interpretation: recover the XDR op-sequence a codec
//! emits or consumes, without compiling anything.
//!
//! Every `impl XdrEncode for T` / `impl XdrDecode for T` pair is
//! symbolically executed into an abstract op sequence over a small lattice:
//!
//! * **primitives** — `put_u32`/`get_u32`, strings, opaques, array length
//!   prefixes (`Op::Prim`);
//! * **nested codecs** — `self.field.encode(w)` / `T::decode(r)?` become
//!   [`Op::Nested`] carrying the type idents we could infer (field
//!   declarations, path segments); an empty hint set means "unknown", which
//!   downstream checks treat as compatible with anything;
//! * **loops** — `for`/`while`/`loop` bodies collapse to counted repetition
//!   ([`Op::Repeat`]): XDR arrays are `length . element*`, so per-iteration
//!   shape is what matters, not the trip count;
//! * **bulk word runs** — `put_words(items, i32::to_be_bytes)` /
//!   `get_words(n, i32::from_be_bytes)` write or read the same bytes as a
//!   per-element `put_i32`/`get_i32` loop, so they become that loop's
//!   `Repeat(i32)`, the element primitive named by the numeric type in the
//!   conversion argument (unknown, i.e. `Repeat(nested codec)`, when no
//!   numeric type is named). A bulk encoder therefore pairs with either a
//!   bulk or a looping decoder of the same width, and a width mismatch
//!   between the two sides is a diff like any other;
//! * **branches** — a `match` keyed on a `get_u32` discriminant (decode) or
//!   on `self` (encode) becomes [`Op::Branch`] with per-arm tag literals,
//!   covered variant names, and the arm's own op sequence. An encode whose
//!   arms each start with `put_u32(<literal>)` is normalized to
//!   `U32 . Branch` so both shapes of tagged-union codec compare equal;
//! * **shared segments** — `put_opaque_bytes` appends an opaque as a
//!   segment of its own instead of copying it, and `get_opaque_bytes`
//!   reads one back (from any segment split of the frame) without a copy:
//!   on the wire both are `put_opaque`/`get_opaque`, so they are read as
//!   those;
//! * **trailing extensions** — `put_trailing_extension` /
//!   `get_trailing_extension` become [`Op::TrailingExt`], with the payload
//!   shape recovered by inlining the helper that builds/parses it
//!   (`encode_trace`/`decode_trace`-style).
//!
//! Cross-function inlining goes through the resolved call graph
//! ([`Workspace`]): a call whose target's interpreted sequence is non-empty
//! is spliced in at the call site (memoized, cycle-cut). Codecs generated
//! inside `macro_rules!` bodies are invisible to the lexer-level scan, so
//! macro-expanded types (`id_u64!`, `impl_prim!`, `remote_interface!`)
//! appear only as [`Op::Nested`] leaves of hand-written codecs — a known,
//! documented imprecision (DESIGN.md §16).
//!
//! Control flow is otherwise flattened in source order: ops under an `if`
//! contribute unconditionally. That is deliberate — a codec whose wire
//! shape depends on non-discriminant control flow is itself a smell — and
//! it keeps the interpreter linear in token count.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Primitive wire operations (writer/reader call pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    U32,
    I32,
    U64,
    I64,
    F32,
    F64,
    Bool,
    Str,
    Bytes,
    FixedBytes,
    ArrayLen,
}

impl Prim {
    /// Human name used in diagnostics (`u32`, `string`, …).
    pub fn name(self) -> &'static str {
        match self {
            Prim::U32 => "u32",
            Prim::I32 => "i32",
            Prim::U64 => "u64",
            Prim::I64 => "i64",
            Prim::F32 => "f32",
            Prim::F64 => "f64",
            Prim::Bool => "bool",
            Prim::Str => "string",
            Prim::Bytes => "opaque",
            Prim::FixedBytes => "fixed-opaque",
            Prim::ArrayLen => "array-len",
        }
    }
}

/// One arm of a discriminated [`Op::Branch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Literal tags in the arm pattern (decode) or factored out of a
    /// leading `put_u32(<lit>)` (encode).
    pub tags: Vec<u32>,
    /// Variant names: pattern paths (`ReplyStatus::Ok =>`) plus variants
    /// constructed in the arm body (`Ok(ReplyStatus::Ok)`).
    pub variants: Vec<String>,
    /// `_` or a bare binding: the explicit unknown-tag arm.
    pub wildcard: bool,
    /// Pattern contained a non-literal tag (a named const) — tag-level
    /// checks are skipped for such arms.
    pub non_literal_tag: bool,
    /// The arm body's op sequence.
    pub ops: Vec<Op>,
    /// Line of the arm pattern.
    pub line: u32,
}

/// One abstract wire operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A primitive writer/reader call. The literal is captured for
    /// `put_u32(<lit>)` so tagged-union encodes can be normalized.
    Prim(Prim, Option<u32>, u32),
    /// A nested codec (`x.encode(w)` / `T::decode(r)`); idents are type
    /// hints, empty = unknown.
    Nested(Vec<String>, u32),
    /// A loop collapsed to its per-iteration shape.
    Repeat(Vec<Op>, u32),
    /// A discriminated branch.
    Branch(Vec<Arm>, u32),
    /// A trailing extension; the payload shape is recovered when the
    /// builder/parser helper could be inlined.
    TrailingExt(Option<Vec<Op>>, u32),
}

impl Op {
    /// Source line the op was recovered from.
    pub fn line(&self) -> u32 {
        match self {
            Op::Prim(_, _, l)
            | Op::Nested(_, l)
            | Op::Repeat(_, l)
            | Op::Branch(_, l)
            | Op::TrailingExt(_, l) => *l,
        }
    }

    /// Short description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Op::Prim(p, _, _) => p.name().to_string(),
            Op::Nested(h, _) if h.is_empty() => "nested codec".to_string(),
            Op::Nested(h, _) => format!("nested `{}`", h.join("/")),
            Op::Repeat(_, _) => "repeated group".to_string(),
            Op::Branch(_, _) => "tag branch".to_string(),
            Op::TrailingExt(_, _) => "trailing extension".to_string(),
        }
    }
}

/// One side (encode or decode) of a type's codec.
#[derive(Debug)]
pub struct CodecSide {
    /// File index into the `files` slice.
    pub file: usize,
    /// Line of the `impl` head (anchor for findings and `allow`s).
    pub line: u32,
    /// The interpreted op sequence, normalized.
    pub ops: Vec<Op>,
}

/// Everything recovered about one wire type.
#[derive(Debug, Default)]
pub struct TypeCodec {
    pub encode: Option<CodecSide>,
    pub decode: Option<CodecSide>,
    /// variant → tag, parsed from an inherent `fn tag(&self)` match.
    pub tag_map: Vec<(String, u32)>,
    /// Site of the `fn tag` definition, if any.
    pub tag_site: Option<(usize, u32)>,
}

/// The whole workspace's codec universe, keyed by type name.
#[derive(Debug, Default)]
pub struct CodecUniverse {
    pub types: BTreeMap<String, TypeCodec>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Mode {
    Encode,
    Decode,
}

const WRITER_OPS: &[(&str, Prim)] = &[
    ("put_u32", Prim::U32),
    ("put_i32", Prim::I32),
    ("put_u64", Prim::U64),
    ("put_i64", Prim::I64),
    ("put_f32", Prim::F32),
    ("put_f64", Prim::F64),
    ("put_bool", Prim::Bool),
    ("put_string", Prim::Str),
    ("put_opaque", Prim::Bytes),
    // Same wire write as `put_opaque`; only the ownership of the data
    // differs (it is appended as a shared segment, not copied).
    ("put_opaque_bytes", Prim::Bytes),
    ("put_fixed_opaque", Prim::FixedBytes),
    ("put_array_len", Prim::ArrayLen),
];

const READER_OPS: &[(&str, Prim)] = &[
    ("get_u32", Prim::U32),
    ("get_i32", Prim::I32),
    ("get_u64", Prim::U64),
    ("get_i64", Prim::I64),
    ("get_f32", Prim::F32),
    ("get_f64", Prim::F64),
    ("get_bool", Prim::Bool),
    ("get_string", Prim::Str),
    ("get_opaque", Prim::Bytes),
    // Same wire read as `get_opaque`; only the ownership of the result
    // differs (it may share the source frame).
    ("get_opaque_bytes", Prim::Bytes),
    ("get_fixed_opaque", Prim::FixedBytes),
    ("get_array_len", Prim::ArrayLen),
];

/// Bulk word-run calls: (writer, reader).
const WORDS_PUT: &str = "put_words";
const WORDS_GET: &str = "get_words";

/// Numeric types a word-run conversion fn can name (`i32::to_be_bytes`),
/// with the per-element primitive the run stands for.
const WORD_ELEMS: &[(&str, Prim)] = &[
    ("i32", Prim::I32),
    ("u32", Prim::U32),
    ("i64", Prim::I64),
    ("u64", Prim::U64),
    ("f32", Prim::F32),
    ("f64", Prim::F64),
];

const TRAILING_EXT_PUT: &str = "put_trailing_extension";
const TRAILING_EXT_GET: &str = "get_trailing_extension";

/// Build the codec universe: scan every non-test file for concrete
/// `impl XdrEncode/XdrDecode for <Type>` blocks and interpret their bodies.
///
/// Skipped exactly as `xdr-pairing` always did: generic impls
/// (`impl<T> … for Vec<T>`), borrowed/unsized/tuple heads (`&T`, `str`,
/// `[u8]`, `()` — encode-only adapters by design), macro bodies, and test
/// regions.
pub fn build(files: &[SourceFile], ws: &Workspace) -> CodecUniverse {
    let mut interp = Interp::new(files, ws);
    let mut universe = CodecUniverse::default();

    for (fi, f) in files.iter().enumerate() {
        if f.in_tests_dir {
            continue;
        }
        for head in scan_impl_heads(f) {
            match head.kind {
                ImplKind::Encode | ImplKind::Decode => {
                    let mode = if head.kind == ImplKind::Encode {
                        Mode::Encode
                    } else {
                        Mode::Decode
                    };
                    let want = if mode == Mode::Encode { "encode" } else { "decode" };
                    let Some((open, close)) = find_method(f, head.open, head.close, want) else {
                        continue;
                    };
                    interp.type_name = Some(head.ty.clone());
                    let mut ops = Vec::new();
                    interp.walk(fi, open + 1, close, mode, &mut ops);
                    interp.type_name = None;
                    let side = CodecSide { file: fi, line: head.line, ops: normalize(ops) };
                    let entry = universe.types.entry(head.ty.clone()).or_default();
                    if mode == Mode::Encode {
                        entry.encode.get_or_insert(side);
                    } else {
                        entry.decode.get_or_insert(side);
                    }
                }
                ImplKind::Inherent => {
                    if let Some((open, close)) = find_method(f, head.open, head.close, "tag") {
                        let map = parse_tag_fn(f, open, close, &head.ty);
                        if !map.is_empty() {
                            let entry = universe.types.entry(head.ty.clone()).or_default();
                            entry.tag_map = map;
                            entry.tag_site = Some((fi, f.tokens[open].line));
                        }
                    }
                }
            }
        }
    }
    universe
}

#[derive(PartialEq)]
enum ImplKind {
    Encode,
    Decode,
    Inherent,
}

struct ImplHead {
    kind: ImplKind,
    ty: String,
    line: u32,
    /// Token indices of the impl body braces.
    open: usize,
    close: usize,
}

/// Find concrete codec impl blocks (and inherent impls, for `fn tag`).
fn scan_impl_heads(f: &SourceFile) -> Vec<ImplHead> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("impl") || f.in_macro_def(i) || f.is_test_tok(i) {
            continue;
        }
        // Generic impls are exempt (blanket adapters like `Vec<T>`,
        // `Option<T>`, `&T` — the concrete element types carry the checks).
        if toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        let Some(first) = toks.get(i + 1) else { continue };
        if first.kind != TokKind::Ident {
            continue;
        }
        let (kind, ty_tok) = match first.text.as_str() {
            "XdrEncode" | "XdrDecode" => {
                if !toks.get(i + 2).is_some_and(|t| t.is_ident("for")) {
                    continue;
                }
                let Some(ty) = toks.get(i + 3) else { continue };
                // Borrowed / unsized / tuple heads are encode-only by design.
                if ty.kind != TokKind::Ident || ty.text == "str" {
                    continue;
                }
                let kind = if first.text == "XdrEncode" { ImplKind::Encode } else { ImplKind::Decode };
                (kind, i + 3)
            }
            _ => {
                // Inherent impl: `impl <Type> {` with no trait.
                if !toks.get(i + 2).is_some_and(|t| t.is_punct('{')) {
                    continue;
                }
                (ImplKind::Inherent, i + 1)
            }
        };
        // Concrete generic heads (`Vec<u8>` vs `Vec<i32>`) must not collide:
        // fold the argument tokens into the type key.
        let mut ty = toks[ty_tok].text.clone();
        let mut after_ty = ty_tok + 1;
        if toks.get(after_ty).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while after_ty < toks.len() {
                if toks[after_ty].is_punct('<') {
                    depth += 1;
                } else if toks[after_ty].is_punct('>') {
                    depth -= 1;
                }
                ty.push_str(&toks[after_ty].text);
                after_ty += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        let Some(open) = (after_ty..toks.len()).find(|&j| toks[j].is_punct('{')) else {
            continue;
        };
        let Some(&close) = f.close_of.get(&open) else { continue };
        out.push(ImplHead { kind, ty, line: toks[ty_tok].line, open, close });
    }
    out
}

/// Locate `fn <name>` with a body inside an impl block's brace range.
fn find_method(f: &SourceFile, open: usize, close: usize, name: &str) -> Option<(usize, usize)> {
    let toks = &f.tokens;
    let mut j = open + 1;
    while j < close {
        if toks[j].is_ident("fn") && toks.get(j + 1).is_some_and(|t| t.is_ident(name)) {
            // Skip the parameter list, then find the body brace.
            let mut k = j + 2;
            while k < close && !toks[k].is_punct('(') {
                k += 1;
            }
            k = f.close_of.get(&k).copied().unwrap_or(k) + 1;
            while k < close && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                k += 1;
            }
            if k < close && toks[k].is_punct('{') {
                if let Some(&end) = f.close_of.get(&k) {
                    return Some((k, end));
                }
            }
        }
        j += 1;
    }
    None
}

/// Parse an inherent `fn tag(&self) -> u32 { match self { V => lit, … } }`
/// into a variant → tag map.
fn parse_tag_fn(f: &SourceFile, open: usize, close: usize, ty: &str) -> Vec<(String, u32)> {
    let toks = &f.tokens;
    let Some(match_tok) = (open + 1..close).find(|&j| toks[j].is_ident("match")) else {
        return Vec::new();
    };
    let Some((arms_open, arms_close)) = arms_block(f, match_tok, close) else {
        return Vec::new();
    };
    let mut map = Vec::new();
    for (plo, phi, blo, bhi) in split_arms(f, arms_open, arms_close) {
        let variants = pattern_variants(f, plo, phi, ty);
        // The body must be a single integer literal.
        let lits: Vec<u32> = (blo..bhi)
            .filter(|&j| toks[j].kind == TokKind::Num)
            .filter_map(|j| parse_u32(&toks[j].text))
            .collect();
        if let (false, [lit]) = (variants.is_empty(), lits.as_slice()) {
            for v in variants {
                map.push((v, *lit));
            }
        }
    }
    map
}

/// From a `match` keyword, find the `{ … }` of its arms (first `{` outside
/// the scrutinee's parens/brackets).
fn arms_block(f: &SourceFile, match_tok: usize, limit: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for (j, t) in f.tokens.iter().enumerate().take(limit).skip(match_tok + 1) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth <= 0 {
            return f.close_of.get(&j).map(|&c| (j, c));
        }
    }
    None
}

/// Split a match-arms block into `(pattern_lo, pattern_hi, body_lo,
/// body_hi)` half-open token ranges.
fn split_arms(f: &SourceFile, open: usize, close: usize) -> Vec<(usize, usize, usize, usize)> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        let pat_lo = j;
        // Pattern: scan for `=>` at depth 0 (struct patterns may nest `{}`).
        let mut depth = 0i32;
        let mut arrow = None;
        while j < close {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && toks.get(j + 1).is_some_and(|t| t.is_punct('>'))
            {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let body_lo = arrow + 2;
        let mut body_hi;
        if toks.get(body_lo).is_some_and(|t| t.is_punct('{')) {
            body_hi = f.close_of.get(&body_lo).copied().unwrap_or(close).min(close) + 1;
            j = body_hi;
            if toks.get(j).is_some_and(|t| t.is_punct(',')) {
                j += 1;
            }
        } else {
            // Expression body: to the `,` at depth 0, or the arms close.
            let mut depth = 0i32;
            j = body_lo;
            while j < close {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(',') {
                    break;
                }
                j += 1;
            }
            body_hi = j;
            if toks.get(j).is_some_and(|t| t.is_punct(',')) {
                j += 1;
            }
        }
        body_hi = body_hi.min(close);
        out.push((pat_lo, arrow, body_lo, body_hi));
    }
    out
}

/// Variant names a pattern covers: `Ty::V`, `Self::V` (OR-patterns give
/// several).
fn pattern_variants(f: &SourceFile, lo: usize, hi: usize, ty: &str) -> Vec<String> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    for j in lo..hi.saturating_sub(3) {
        if (toks[j].is_ident(ty) || toks[j].is_ident("Self"))
            && toks[j + 1].is_punct(':')
            && toks[j + 2].is_punct(':')
            && toks[j + 3].kind == TokKind::Ident
        {
            out.push(toks[j + 3].text.clone());
        }
    }
    out
}

/// True when the pattern is `_` or a single lowercase binding — the
/// unknown-tag arm.
fn pattern_is_wildcard(f: &SourceFile, lo: usize, hi: usize) -> bool {
    let pat: Vec<&crate::lexer::Token> = f.tokens[lo..hi].iter().collect();
    match pat.as_slice() {
        [t] => {
            t.kind == TokKind::Ident
                && (t.text == "_" || t.text.chars().next().is_some_and(|c| c.is_lowercase()))
        }
        _ => false,
    }
}

fn parse_u32(text: &str) -> Option<u32> {
    let clean = text.replace('_', "");
    if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

/// Normalize a sequence: an encode-side branch whose non-wildcard arms all
/// begin with `put_u32(<literal>)` is rewritten to `U32 . Branch` with the
/// literal promoted to the arm's tag — so both tagged-union codec shapes
/// (tag written per arm vs. `put_u32(self.tag())` up front) compare equal.
fn normalize(ops: Vec<Op>) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Branch(mut arms, line) => {
                for arm in &mut arms {
                    arm.ops = normalize(std::mem::take(&mut arm.ops));
                }
                let factorable = !arms.is_empty()
                    && arms.iter().filter(|a| !a.wildcard).count() > 0
                    && arms.iter().filter(|a| !a.wildcard).all(|a| {
                        matches!(a.ops.first(), Some(Op::Prim(Prim::U32, Some(_), _)))
                    });
                if factorable {
                    for arm in &mut arms {
                        if arm.wildcard {
                            continue;
                        }
                        if let Op::Prim(Prim::U32, Some(lit), _) = arm.ops.remove(0) {
                            arm.tags.push(lit);
                        }
                    }
                    out.push(Op::Prim(Prim::U32, None, line));
                }
                out.push(Op::Branch(arms, line));
            }
            Op::Repeat(body, line) => out.push(Op::Repeat(normalize(body), line)),
            Op::TrailingExt(payload, line) => {
                out.push(Op::TrailingExt(payload.map(normalize), line))
            }
            other => out.push(other),
        }
    }
    out
}

struct Interp<'a> {
    files: &'a [SourceFile],
    ws: &'a Workspace,
    memo: HashMap<(usize, Mode), Vec<Op>>,
    active: HashSet<usize>,
    /// Wire type currently being interpreted (for constructed-variant
    /// recovery in decode arms).
    type_name: Option<String>,
}

impl<'a> Interp<'a> {
    fn new(files: &'a [SourceFile], ws: &'a Workspace) -> Self {
        Interp { files, ws, memo: HashMap::new(), active: HashSet::new(), type_name: None }
    }

    /// Interpreted sequence of a whole function (memoized; cycles yield the
    /// empty sequence).
    fn fn_seq(&mut self, id: usize, mode: Mode) -> Vec<Op> {
        if let Some(seq) = self.memo.get(&(id, mode)) {
            return seq.clone();
        }
        if !self.active.insert(id) {
            return Vec::new();
        }
        let (file, open, close) = {
            let fi = &self.ws.fns[id];
            (fi.file, fi.open, fi.close)
        };
        let mut ops = Vec::new();
        self.walk(file, open + 1, close, mode, &mut ops);
        self.active.remove(&id);
        self.memo.insert((id, mode), ops.clone());
        ops
    }

    /// Walk one token range, appending recovered ops.
    fn walk(&mut self, fi: usize, lo: usize, hi: usize, mode: Mode, out: &mut Vec<Op>) {
        let f = &self.files[fi];
        let toks = &f.tokens;
        let mut j = lo;
        while j < hi {
            let t = &toks[j];
            if t.kind != TokKind::Ident {
                j += 1;
                continue;
            }
            match t.text.as_str() {
                "match" => {
                    j = self.handle_match(fi, j, hi, mode, out);
                    continue;
                }
                "for" | "while" | "loop" => {
                    j = self.handle_loop(fi, j, hi, mode, out);
                    continue;
                }
                _ => {}
            }

            let called = toks.get(j + 1).is_some_and(|n| n.is_punct('('));
            let dotted = j > 0 && toks[j - 1].is_punct('.');

            // Primitive writer/reader ops.
            if called && dotted {
                let table = if mode == Mode::Encode { WRITER_OPS } else { READER_OPS };
                if let Some(&(_, prim)) = table.iter().find(|(n, _)| t.is_ident(n)) {
                    let lit = (toks.get(j + 2).map(|a| a.kind) == Some(TokKind::Num)
                        && toks.get(j + 3).is_some_and(|a| a.is_punct(')') || a.is_punct(',')))
                    .then(|| parse_u32(&toks[j + 2].text))
                    .flatten();
                    out.push(Op::Prim(prim, lit, t.line));
                    j = f.close_of.get(&(j + 1)).copied().unwrap_or(j + 1) + 1;
                    continue;
                }
                let words = if mode == Mode::Encode { WORDS_PUT } else { WORDS_GET };
                if t.is_ident(words) {
                    let close = f.close_of.get(&(j + 1)).copied().unwrap_or(j + 1);
                    let elem = toks[j + 2..close]
                        .iter()
                        .find_map(|a| WORD_ELEMS.iter().find(|(n, _)| a.is_ident(n)))
                        .map_or(Op::Nested(Vec::new(), t.line), |&(_, p)| Op::Prim(p, None, t.line));
                    out.push(Op::Repeat(vec![elem], t.line));
                    j = close + 1;
                    continue;
                }
                let trailing = if mode == Mode::Encode { TRAILING_EXT_PUT } else { TRAILING_EXT_GET };
                if t.is_ident(trailing) {
                    let close = f.close_of.get(&(j + 1)).copied().unwrap_or(j + 1);
                    let payload = if mode == Mode::Encode {
                        self.find_helper_seq(fi, j + 2, close, mode)
                    } else {
                        None // decode payload is recovered at the match, below
                    };
                    out.push(Op::TrailingExt(payload, t.line));
                    j = close + 1;
                    continue;
                }
            }

            // Nested codec: `x.encode(w)` in encode, `T::decode(r)` in decode.
            if called && mode == Mode::Encode && dotted && t.is_ident("encode") {
                let hints = self.encode_recv_hints(fi, j);
                out.push(Op::Nested(hints, t.line));
                j = f.close_of.get(&(j + 1)).copied().unwrap_or(j + 1) + 1;
                continue;
            }
            if called
                && mode == Mode::Decode
                && t.is_ident("decode")
                && j > 0
                && toks[j - 1].is_punct(':')
            {
                let hints = decode_path_hints(f, j);
                out.push(Op::Nested(hints, t.line));
                j = f.close_of.get(&(j + 1)).copied().unwrap_or(j + 1) + 1;
                continue;
            }

            // Helper inlining through the resolved call graph.
            if called {
                if let Some(seq) = self.resolve_helper(fi, j, mode) {
                    out.extend(seq);
                    j = f.close_of.get(&(j + 1)).copied().unwrap_or(j + 1) + 1;
                    continue;
                }
            }
            j += 1;
        }
    }

    /// A call at token `j` whose resolved target has a non-empty
    /// interpreted sequence — the `encode_trace`/`decode_trace` pattern.
    fn resolve_helper(&mut self, fi: usize, j: usize, mode: Mode) -> Option<Vec<Op>> {
        let enclosing = self.enclosing_fn(fi, j)?;
        let ci = self.ws.calls[enclosing].iter().position(|c| c.tok == j)?;
        let targets: Vec<usize> = self.ws.targets[enclosing][ci].clone();
        for t in targets {
            if self.ws.fns[t].is_test {
                continue;
            }
            let seq = self.fn_seq(t, mode);
            if !seq.is_empty() {
                return Some(seq);
            }
        }
        None
    }

    /// The fn whose body contains token `j` (innermost by body-open).
    fn enclosing_fn(&self, fi: usize, j: usize) -> Option<usize> {
        self.ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == fi && f.open < j && j < f.close)
            .max_by_key(|(_, f)| f.open)
            .map(|(id, _)| id)
    }

    /// First helper call in a range with a non-empty sequence (payload
    /// recovery for trailing extensions).
    fn find_helper_seq(&mut self, fi: usize, lo: usize, hi: usize, mode: Mode) -> Option<Vec<Op>> {
        let f = &self.files[fi];
        for j in lo..hi {
            if f.tokens[j].kind == TokKind::Ident
                && f.tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                if let Some(seq) = self.resolve_helper(fi, j, mode) {
                    return Some(seq);
                }
            }
        }
        None
    }

    /// Type hints for the receiver of `<path>.encode(w)`: the declared type
    /// idents of the last field in a `self.a.b` path, or the local's
    /// inferred type idents for `v.encode(w)`.
    fn encode_recv_hints(&self, fi: usize, op_tok: usize) -> Vec<String> {
        let f = &self.files[fi];
        let toks = &f.tokens;
        // op_tok - 1 is `.`; op_tok - 2 the receiver's last segment.
        if op_tok < 2 || toks[op_tok - 2].kind != TokKind::Ident {
            return Vec::new();
        }
        let last = &toks[op_tok - 2];
        let rooted_in_self = op_tok >= 4
            && toks[op_tok - 3].is_punct('.')
            && toks[op_tok - 4].is_ident("self");
        let crate_name = &f.crate_name;
        if rooted_in_self {
            return self
                .ws
                .field_types
                .get(&(crate_name.clone(), last.text.clone()))
                .cloned()
                .unwrap_or_default();
        }
        // A bare local: params/let inference from the enclosing fn.
        if op_tok >= 3 && toks[op_tok - 3].is_punct('.') {
            return Vec::new(); // deeper non-self path: unknown
        }
        if let Some(id) = self.enclosing_fn(fi, op_tok) {
            if let Some(h) = self.ws.local_hints[id].get(&last.text) {
                return h.clone();
            }
        }
        Vec::new()
    }

    /// Interpret a `match`. Three shapes matter:
    ///
    /// * head ends in a trailing-extension read → one [`Op::TrailingExt`],
    ///   payload from the first inlinable helper in the arms;
    /// * head is exactly one `get_u32` → discriminant dispatch: `U32 .
    ///   Branch` keyed by literal arm tags;
    /// * otherwise (encode's `match self`) → [`Op::Branch`] keyed by
    ///   pattern variants, when any arm carries ops.
    ///
    /// Returns the token index to resume at.
    fn handle_match(
        &mut self,
        fi: usize,
        match_tok: usize,
        hi: usize,
        mode: Mode,
        out: &mut Vec<Op>,
    ) -> usize {
        let f = &self.files[fi];
        let Some((arms_open, arms_close)) = arms_block(f, match_tok, hi) else {
            return match_tok + 1;
        };
        let mut head_ops = Vec::new();
        self.walk(fi, match_tok + 1, arms_open, mode, &mut head_ops);

        if matches!(head_ops.last(), Some(Op::TrailingExt(_, _))) {
            let line = head_ops.last().map(|o| o.line()).unwrap_or(0);
            // Everything before the extension read still counts.
            head_ops.pop();
            out.extend(head_ops);
            let payload = self.find_helper_seq(fi, arms_open + 1, arms_close, mode);
            out.push(Op::TrailingExt(payload, line));
            return arms_close + 1;
        }

        let disc = head_ops.len() == 1 && matches!(head_ops[0], Op::Prim(Prim::U32, _, _));
        let ty = self.type_name.clone().unwrap_or_default();
        let mut arms = Vec::new();
        for (plo, phi, blo, bhi) in split_arms(f, arms_open, arms_close) {
            let f = &self.files[fi];
            let toks = &f.tokens;
            let mut tags = Vec::new();
            let mut non_literal_tag = false;
            let mut depth = 0i32;
            for t in &toks[plo..phi] {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && t.kind == TokKind::Num {
                    match parse_u32(&t.text) {
                        Some(v) => tags.push(v),
                        None => non_literal_tag = true,
                    }
                } else if disc && depth == 0 && t.kind == TokKind::Ident && is_const_like(&t.text) {
                    non_literal_tag = true;
                }
            }
            let mut variants = pattern_variants(f, plo, phi, &ty);
            let wildcard = pattern_is_wildcard(f, plo, phi);
            let line = toks[plo].line;
            let mut ops = Vec::new();
            self.walk(fi, blo, bhi, mode, &mut ops);
            // Variants the arm body constructs (decode side).
            let f = &self.files[fi];
            for v in pattern_variants(f, blo, bhi, &ty) {
                if !variants.contains(&v) {
                    variants.push(v);
                }
            }
            arms.push(Arm { tags, variants, wildcard, non_literal_tag, ops, line });
        }

        out.extend(head_ops);
        // A discriminant match is always a branch point; otherwise only
        // matches whose arms do wire work shape the stream.
        if disc || arms.iter().any(|a| !a.ops.is_empty()) {
            out.push(Op::Branch(arms, f.tokens[match_tok].line));
        }
        arms_close + 1
    }

    /// Interpret a `for`/`while`/`loop`: head ops (e.g. a `while let` read)
    /// then the body collapsed to [`Op::Repeat`].
    fn handle_loop(
        &mut self,
        fi: usize,
        kw: usize,
        hi: usize,
        mode: Mode,
        out: &mut Vec<Op>,
    ) -> usize {
        let f = &self.files[fi];
        let Some((body_open, body_close)) = arms_block(f, kw, hi) else {
            return kw + 1;
        };
        let line = f.tokens[kw].line;
        let mut head_ops = Vec::new();
        self.walk(fi, kw + 1, body_open, mode, &mut head_ops);
        out.extend(head_ops);
        let mut body = Vec::new();
        self.walk(fi, body_open + 1, body_close, mode, &mut body);
        if !body.is_empty() {
            out.push(Op::Repeat(body, line));
        }
        body_close + 1
    }
}

/// SCREAMING_CASE or other const-looking ident in tag-pattern position.
fn is_const_like(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_uppercase())
        && text.chars().all(|c| c.is_uppercase() || c.is_numeric() || c == '_')
}

/// Type idents in a `A::B::<C>::decode` path, walked back from the
/// `decode` token.
fn decode_path_hints(f: &SourceFile, op_tok: usize) -> Vec<String> {
    let toks = &f.tokens;
    let mut hints = Vec::new();
    let mut k = op_tok;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(':') || t.is_punct('<') || t.is_punct('>') {
            continue;
        }
        if t.kind == TokKind::Ident && t.text != "Self" {
            hints.push(t.text.clone());
            continue;
        }
        if t.kind == TokKind::Ident {
            continue;
        }
        break;
    }
    hints.reverse();
    hints
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe_of(src: &str) -> CodecUniverse {
        let f = SourceFile::from_source("crates/orb/src/wire.rs", "ohpc-orb", false, src);
        let files = vec![f];
        let ws = Workspace::build(&files);
        build(&files, &ws)
    }

    #[test]
    fn plain_struct_codec_is_mirrored_prims() {
        let u = universe_of(
            r#"
            impl XdrEncode for Meta {
                fn encode(&self, w: &mut XdrWriter) {
                    w.put_string(&self.name);
                    w.put_opaque(&self.meta);
                }
            }
            impl XdrDecode for Meta {
                fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                    Ok(Self { name: r.get_string()?, meta: r.get_opaque()? })
                }
            }
            "#,
        );
        let t = &u.types["Meta"];
        let enc = &t.encode.as_ref().unwrap().ops;
        let dec = &t.decode.as_ref().unwrap().ops;
        assert!(matches!(enc[..], [Op::Prim(Prim::Str, _, _), Op::Prim(Prim::Bytes, _, _)]));
        assert!(matches!(dec[..], [Op::Prim(Prim::Str, _, _), Op::Prim(Prim::Bytes, _, _)]));
    }

    #[test]
    fn loops_collapse_to_repeat() {
        let u = universe_of(
            r#"
            impl XdrEncode for Wire {
                fn encode(&self, w: &mut XdrWriter) {
                    w.put_u64(self.id);
                    w.put_array_len(self.caps.len());
                    for c in &self.caps {
                        c.encode(w);
                    }
                }
            }
            impl XdrDecode for Wire {
                fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                    let id = r.get_u64()?;
                    let n = r.get_array_len()?;
                    let mut caps = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        caps.push(Meta::decode(r)?);
                    }
                    Ok(Self { id, caps })
                }
            }
            "#,
        );
        let t = &u.types["Wire"];
        let enc = &t.encode.as_ref().unwrap().ops;
        assert!(matches!(
            enc[..],
            [
                Op::Prim(Prim::U64, _, _),
                Op::Prim(Prim::ArrayLen, _, _),
                Op::Repeat(ref body, _),
            ] if matches!(body[..], [Op::Nested(_, _)])
        ));
        let dec = &t.decode.as_ref().unwrap().ops;
        assert!(matches!(
            dec[..],
            [
                Op::Prim(Prim::U64, _, _),
                Op::Prim(Prim::ArrayLen, _, _),
                Op::Repeat(ref body, _),
            ] if matches!(body[..], [Op::Nested(ref h, _)] if h == &["Meta"])
        ));
    }

    #[test]
    fn bulk_word_runs_are_per_element_repeats() {
        let u = universe_of(
            r#"
            impl XdrEncode for Samples {
                fn encode(&self, w: &mut XdrWriter) {
                    w.put_array_len(self.v.len());
                    w.put_words(&self.v, f64::to_be_bytes);
                }
            }
            impl XdrDecode for Samples {
                fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                    let n = r.get_array_len()?;
                    Ok(Self { v: r.get_words(n, f64::from_be_bytes)?, blob: r.get_opaque_bytes()? })
                }
            }
            "#,
        );
        let t = &u.types["Samples"];
        let enc = &t.encode.as_ref().unwrap().ops;
        assert!(matches!(
            enc[..],
            [Op::Prim(Prim::ArrayLen, _, _), Op::Repeat(ref body, _)]
                if matches!(body[..], [Op::Prim(Prim::F64, _, _)])
        ), "{enc:?}");
        let dec = &t.decode.as_ref().unwrap().ops;
        assert!(matches!(
            dec[..],
            [Op::Prim(Prim::ArrayLen, _, _), Op::Repeat(ref body, _), Op::Prim(Prim::Bytes, _, _)]
                if matches!(body[..], [Op::Prim(Prim::F64, _, _)])
        ), "{dec:?}");
    }

    #[test]
    fn segment_appends_are_opaques() {
        let u = universe_of(
            r#"
            impl XdrEncode for Msg {
                fn encode(&self, w: &mut XdrWriter) {
                    w.put_u64(self.id);
                    w.put_opaque_bytes(self.body.clone());
                }
            }
            impl XdrDecode for Msg {
                fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                    Ok(Self { id: r.get_u64()?, body: r.get_opaque_bytes()? })
                }
            }
            "#,
        );
        let t = &u.types["Msg"];
        for ops in [&t.encode.as_ref().unwrap().ops, &t.decode.as_ref().unwrap().ops] {
            assert!(
                matches!(ops[..], [Op::Prim(Prim::U64, _, _), Op::Prim(Prim::Bytes, _, _)]),
                "{ops:?}"
            );
        }
    }

    #[test]
    fn per_arm_tags_factor_into_disc_plus_branch() {
        let u = universe_of(
            r#"
            impl XdrEncode for Data {
                fn encode(&self, w: &mut XdrWriter) {
                    match self {
                        Data::A(s) => {
                            w.put_u32(0);
                            w.put_string(s);
                        }
                        Data::B(x) => {
                            w.put_u32(1);
                            w.put_u64(*x);
                        }
                    }
                }
            }
            impl XdrDecode for Data {
                fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                    match r.get_u32()? {
                        0 => Ok(Data::A(r.get_string()?)),
                        1 => Ok(Data::B(r.get_u64()?)),
                        t => Err(XdrError::InvalidDiscriminant(t)),
                    }
                }
            }
            "#,
        );
        let t = &u.types["Data"];
        let enc = &t.encode.as_ref().unwrap().ops;
        let [Op::Prim(Prim::U32, _, _), Op::Branch(enc_arms, _)] = &enc[..] else {
            panic!("encode shape: {enc:?}");
        };
        assert_eq!(enc_arms[0].tags, vec![0]);
        assert_eq!(enc_arms[0].variants, vec!["A"]);
        assert_eq!(enc_arms[1].tags, vec![1]);
        let dec = &t.decode.as_ref().unwrap().ops;
        let [Op::Prim(Prim::U32, _, _), Op::Branch(dec_arms, _)] = &dec[..] else {
            panic!("decode shape: {dec:?}");
        };
        assert_eq!(dec_arms.len(), 3);
        assert!(dec_arms[2].wildcard);
        assert_eq!(dec_arms[0].variants, vec!["A"]);
    }

    #[test]
    fn tag_fn_yields_variant_map() {
        let u = universe_of(
            r#"
            impl Status {
                fn tag(&self) -> u32 {
                    match self {
                        Status::Ok => 0,
                        Status::Oops(_) => 1,
                    }
                }
            }
            "#,
        );
        let t = &u.types["Status"];
        assert_eq!(t.tag_map, vec![("Ok".to_string(), 0), ("Oops".to_string(), 1)]);
    }

    #[test]
    fn trailing_extension_inlines_the_payload_helper() {
        let u = universe_of(
            r#"
            fn encode_extra(t: &Extra) -> Bytes {
                let mut w = XdrWriter::new();
                w.put_u64(t.a);
                w.put_u64(t.b);
                w.finish()
            }
            fn decode_extra(payload: &[u8]) -> Result<Extra, XdrError> {
                let mut r = XdrReader::new(payload);
                Ok(Extra { a: r.get_u64()?, b: r.get_u64()? })
            }
            impl XdrEncode for Msg {
                fn encode(&self, w: &mut XdrWriter) {
                    w.put_u32(self.kind);
                    if let Some(t) = &self.extra {
                        w.put_trailing_extension(VERSION, &encode_extra(t));
                    }
                }
            }
            impl XdrDecode for Msg {
                fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
                    let kind = r.get_u32()?;
                    let extra = match r.get_trailing_extension()? {
                        None => None,
                        Some((VERSION, payload)) => Some(decode_extra(payload)?),
                        Some((_, _)) => None,
                    };
                    Ok(Self { kind, extra })
                }
            }
            "#,
        );
        let t = &u.types["Msg"];
        let enc = &t.encode.as_ref().unwrap().ops;
        let [Op::Prim(Prim::U32, _, _), Op::TrailingExt(Some(enc_payload), _)] = &enc[..] else {
            panic!("encode shape: {enc:?}");
        };
        assert!(matches!(
            enc_payload[..],
            [Op::Prim(Prim::U64, _, _), Op::Prim(Prim::U64, _, _)]
        ));
        let dec = &t.decode.as_ref().unwrap().ops;
        let [Op::Prim(Prim::U32, _, _), Op::TrailingExt(Some(dec_payload), _)] = &dec[..] else {
            panic!("decode shape: {dec:?}");
        };
        assert_eq!(dec_payload.len(), 2);
    }

    #[test]
    fn generic_and_borrowed_heads_are_skipped() {
        let u = universe_of(
            r#"
            impl<T: XdrEncode> XdrEncode for Vec<T> { fn encode(&self, w: &mut XdrWriter) {} }
            impl XdrEncode for str { fn encode(&self, w: &mut XdrWriter) { w.put_string(self); } }
            impl XdrEncode for [u8] { fn encode(&self, w: &mut XdrWriter) { w.put_opaque(self); } }
            "#,
        );
        assert!(u.types.is_empty(), "{:?}", u.types.keys().collect::<Vec<_>>());
    }
}
