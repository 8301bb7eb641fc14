//! The project-invariant rules.
//!
//! Each rule is a pure function from lexed source to [`Finding`]s, so
//! the fixture tests drive them on string literals and the `checkx-lint`
//! binary drives them over the workspace — same code, no test double.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

use super::lexer::{test_module_mask, Lexed, Tok, TokKind};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Rule id (the name `checkx:allow(...)` suppresses).
    pub rule: &'static str,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Methods whose results must not be `unwrap()`/`expect()`ed in
/// non-test code: lock acquisition, channel endpoints, thread joins, and
/// wire/frame decoding. All of them fail for *environmental* reasons
/// (poisoning, disconnection, a corrupt frame off the interconnect) that
/// production code must handle or deliberately wave through with an
/// annotated `checkx:allow`.
const SYNC_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "recv",
    "try_recv",
    "recv_timeout",
    "send",
    "try_send",
    "join",
    "decode",
    "decode_chunk",
    "decode_block",
];

/// `sync-unwrap`: flag `<sync method>(…).unwrap()` / `.expect(…)`
/// outside `#[cfg(test)]` modules.
pub fn sync_unwrap(path: &Path, lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mask = test_module_mask(toks);
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        // Pattern: `.` {unwrap|expect} `(` …
        if !(is_punct(toks, i, ".")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect"))
            && is_punct(toks, i + 2, "("))
        {
            continue;
        }
        // Receiver must be a call `…method(…)` ending right before the dot.
        let Some(close) = i.checked_sub(1) else {
            continue;
        };
        if !is_punct(toks, close, ")") {
            continue;
        }
        let Some(open) = match_backward(toks, close) else {
            continue;
        };
        let Some(method) = open.checked_sub(1) else {
            continue;
        };
        let m = &toks[method];
        if m.kind != TokKind::Ident || !SYNC_METHODS.contains(&m.text.as_str()) {
            continue;
        }
        // Require a method call (`.method(...)`) so free functions named
        // `send`/`read` etc. don't trip the rule.
        if !method.checked_sub(1).is_some_and(|d| is_punct(toks, d, ".")) {
            continue;
        }
        let line = toks[i + 1].line;
        if lexed.allowed("sync-unwrap", line) {
            continue;
        }
        findings.push(Finding {
            path: path.to_path_buf(),
            line,
            rule: "sync-unwrap",
            message: format!(
                "`{}()` result passed to `{}()` in non-test code — handle the failure \
                 (shim locks return guards directly; channel/decode errors \
                 are real at runtime) or annotate `// checkx:allow(sync-unwrap)`",
                m.text,
                toks[i + 1].text
            ),
        });
    }
    findings
}

/// `wall-clock`: flag `Instant::now` / `SystemTime::now` in
/// simulation-deterministic code. The cost model, the planners, and the
/// codecs must produce bit-identical results for identical inputs;
/// reading a wall clock there makes replays diverge. (Timeout plumbing
/// in the live actor runtime is *not* in scope — the scope is chosen per
/// file by the driver.)
pub fn wall_clock(path: &Path, lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mask = test_module_mask(toks);
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = matches!(t.text.as_str(), "Instant" | "SystemTime")
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && toks.get(i + 3).is_some_and(|t| t.text == "now");
        if !hit || lexed.allowed("wall-clock", t.line) {
            continue;
        }
        findings.push(Finding {
            path: path.to_path_buf(),
            line: t.line,
            rule: "wall-clock",
            message: format!(
                "`{}::now` read in a simulation-deterministic path — thread \
                 a virtual clock / seed through instead, or annotate \
                 `// checkx:allow(wall-clock)` with the reason",
                t.text
            ),
        });
    }
    findings
}

/// `oracle-evaluator`: flag any name of the kernel compiler
/// (`compile_vec`, `compile_vec_predicate`, `CompiledVec*`) outside the
/// `#[cfg(test)]` modules of the reference evaluator. The oracle
/// interprets, so a kernel bug cannot hide behind it; no
/// `checkx:allow` lifts this.
pub fn oracle_evaluator(path: &Path, lexed: &Lexed) -> Vec<Finding> {
    let kernel = |t: &Tok| {
        t.kind == TokKind::Ident
            && (t.text == "compile_vec"
                || t.text == "compile_vec_predicate"
                || t.text.starts_with("CompiledVec"))
    };
    let toks = &lexed.toks;
    toks.iter()
        .zip(test_module_mask(toks))
        .filter(|(t, in_test)| !in_test && kernel(t))
        .map(|(t, _)| Finding {
            path: path.to_path_buf(),
            line: t.line,
            rule: "oracle-evaluator",
            message: format!(
                "`{}` in the reference evaluator, which interprets (`ScalarExpr::eval`)",
                t.text
            ),
        })
        .collect()
}

/// `gdhmsg-exhaustive`: every variant of the `GdhMsg` protocol enum must
/// be named (`GdhMsg::Variant`) in the OFM actor's dispatch file, and in
/// the union of the actor-loop files. The OFM dispatch `match` has no
/// wildcard arm, so rustc forces totality *there*; this rule prevents
/// the cheap regression of adding a variant and "handling" it by adding
/// a `_ => {}` arm instead — the variant's name must literally appear.
pub fn gdhmsg_exhaustive(
    enum_file: (&Path, &Lexed),
    ofm_file: (&Path, &Lexed),
    actor_files: &[(&Path, &Lexed)],
) -> Vec<Finding> {
    let (enum_path, enum_lexed) = enum_file;
    let Some((enum_line, variants)) = enum_variants(&enum_lexed.toks, "GdhMsg") else {
        return vec![Finding {
            path: enum_path.to_path_buf(),
            line: 1,
            rule: "gdhmsg-exhaustive",
            message: "could not find `enum GdhMsg` — the rule's anchor moved".into(),
        }];
    };
    let used_in = |lexed: &Lexed| -> BTreeSet<String> {
        let toks = &lexed.toks;
        let mut used = BTreeSet::new();
        for i in 0..toks.len() {
            if toks[i].kind == TokKind::Ident
                && toks[i].text == "GdhMsg"
                && is_punct(toks, i + 1, ":")
                && is_punct(toks, i + 2, ":")
            {
                if let Some(v) = toks.get(i + 3) {
                    if v.kind == TokKind::Ident {
                        used.insert(v.text.clone());
                    }
                }
            }
        }
        used
    };
    let ofm_used = used_in(ofm_file.1);
    let mut union_used = ofm_used.clone();
    for (_, lexed) in actor_files {
        union_used.extend(used_in(lexed));
    }
    let mut findings = Vec::new();
    for v in &variants {
        if !ofm_used.contains(v) {
            findings.push(Finding {
                path: ofm_file.0.to_path_buf(),
                line: enum_line,
                rule: "gdhmsg-exhaustive",
                message: format!(
                    "GdhMsg::{v} is never named in the OFM actor dispatch \
                     ({}) — handle it explicitly, wildcard arms hide \
                     protocol drift",
                    ofm_file.0.display()
                ),
            });
        } else if !union_used.contains(v) {
            findings.push(Finding {
                path: enum_path.to_path_buf(),
                line: enum_line,
                rule: "gdhmsg-exhaustive",
                message: format!("GdhMsg::{v} is handled by no actor loop"),
            });
        }
    }
    findings
}

/// Locate `enum <name> { … }` and collect its variant idents. Returns
/// the enum's line and variants; fields inside variant payloads are at
/// brace/paren depth > 1 and skipped, as are attributes.
fn enum_variants(toks: &[Tok], name: &str) -> Option<(u32, Vec<String>)> {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && toks[i + 1].text == name
            && is_punct(toks, i + 2, "{")
        {
            break;
        }
        i += 1;
    }
    if i + 2 >= toks.len() {
        return None;
    }
    let line = toks[i].line;
    let mut variants = Vec::new();
    let mut depth = 1usize; // inside the enum braces
    let mut j = i + 3;
    let mut at_variant = true; // next depth-1 ident is a variant name
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") | (TokKind::Punct, "(") => {
                depth += 1;
                j += 1;
            }
            (TokKind::Punct, "}") | (TokKind::Punct, ")") => {
                depth -= 1;
                j += 1;
            }
            (TokKind::Punct, "#") if depth == 1 => {
                // Attribute: skip the bracketed group.
                j += 1;
                if is_punct(toks, j, "[") {
                    let mut d = 0usize;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
            (TokKind::Punct, ",") if depth == 1 => {
                at_variant = true;
                j += 1;
            }
            (TokKind::Ident, _) if depth == 1 && at_variant => {
                variants.push(t.text.clone());
                at_variant = false;
                j += 1;
            }
            _ => j += 1,
        }
    }
    Some((line, variants))
}

/// Keywords after which the next identifier names the item they
/// declare. An identifier in that position defines a name; it is not a
/// use of one.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "static", "const", "mod",
];

/// Qualifiers that may stand between `pub` and an item keyword
/// (`pub const unsafe fn`, `pub extern "C" fn`).
const ITEM_QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

/// `dead-pub`: flag a `pub` item (fn, struct, enum, trait, type alias,
/// const or static) defined outside the `#[cfg(test)]` modules of a file
/// `in_scope` accepts, whose name appears as an identifier nowhere else
/// in `files`. `use` and `pub use` declarations, `#[cfg(test)]` modules
/// and other item-name positions are not uses, so a re-export alone
/// keeps nothing alive; what `files` leaves out (the `tests/`
/// directories) is not read at all. `pub mod` is not checked: a module
/// is a path, and its items are checked one by one. The match is by
/// name, so an item that shares its name with any live identifier
/// passes.
pub fn dead_pub(files: &[(&Path, &Lexed)], in_scope: impl Fn(&Path) -> bool) -> Vec<Finding> {
    let mut used: HashSet<&str> = HashSet::new();
    let mut defs = Vec::new();
    for &(path, lexed) in files {
        let toks = &lexed.toks;
        let mut skip = test_module_mask(toks);
        mask_use_declarations(toks, &mut skip);
        for (i, t) in toks.iter().enumerate() {
            if skip[i] || t.kind != TokKind::Ident {
                continue;
            }
            if names_item(toks, i) {
                if in_scope(path) && is_pub_item(toks, i) {
                    defs.push((path, lexed, t));
                }
            } else {
                used.insert(&t.text);
            }
        }
    }
    defs.into_iter()
        .filter(|(_, lexed, t)| {
            !used.contains(t.text.as_str()) && !lexed.allowed("dead-pub", t.line)
        })
        .map(|(path, _, t)| Finding {
            path: path.to_path_buf(),
            line: t.line,
            rule: "dead-pub",
            message: format!(
                "`pub` item `{}` is named nowhere outside its definition, `use` lines and \
                 tests — delete it, or annotate `// checkx:allow(dead-pub)` with the reason \
                 it is API",
                t.text
            ),
        })
        .collect()
}

/// Mark every token of a `use` declaration, from `use` to its `;`.
fn mask_use_declarations(toks: &[Tok], mask: &mut [bool]) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            while i < toks.len() && !is_punct(toks, i, ";") {
                mask[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
}

/// True when the identifier at `i` is the name an item keyword declares
/// (`fn name`, `struct Name`, …) — not a keyword itself, and not the
/// pointee of a `*const T` pointer type.
fn names_item(toks: &[Tok], i: usize) -> bool {
    let keyword = |t: &Tok| ITEM_KEYWORDS.contains(&t.text.as_str());
    let Some(kw) = i.checked_sub(1).map(|k| &toks[k]) else {
        return false;
    };
    kw.kind == TokKind::Ident
        && keyword(kw)
        && !keyword(&toks[i])
        && !ITEM_QUALIFIERS.contains(&toks[i].text.as_str())
        && !(kw.text == "const" && i >= 2 && is_punct(toks, i - 2, "*"))
}

/// True when the item named at `i` is declared plain `pub` (not
/// `pub(crate)` or private) and is not a module.
fn is_pub_item(toks: &[Tok], i: usize) -> bool {
    toks[i - 1].text != "mod"
        && toks[..i - 1]
            .iter()
            .rev()
            .find(|t| t.kind != TokKind::Lit && !ITEM_QUALIFIERS.contains(&t.text.as_str()))
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == "pub")
}

/// `wire-fingerprint`: hash the wire-format constant declarations
/// (`MAGIC`, `HEADER_LEN`, `TAG_*`, `VTAG_*`) and compare against the
/// pinned `// checkx:wire-fingerprint <hex>` directive in the same file.
/// A mismatch means the wire format changed without touching the version
/// tag — the reviewer-visible act this rule exists to force.
pub fn wire_fingerprint(path: &Path, lexed: &Lexed) -> Vec<Finding> {
    let computed = format!("{:016x}", wire_constants_hash(&lexed.toks));
    let mut findings = Vec::new();
    match lexed.fingerprints.as_slice() {
        [] => findings.push(Finding {
            path: path.to_path_buf(),
            line: 1,
            rule: "wire-fingerprint",
            message: format!(
                "no `// checkx:wire-fingerprint` directive next to the \
                 version tag; pin the current constants with \
                 `// checkx:wire-fingerprint {computed}`"
            ),
        }),
        [(line, pinned)] if *pinned != computed => findings.push(Finding {
            path: path.to_path_buf(),
            line: *line,
            rule: "wire-fingerprint",
            message: format!(
                "wire constants changed (fingerprint {computed}, pinned \
                 {pinned}) — bump the `MAGIC` version tag for incompatible \
                 changes, then re-pin the fingerprint"
            ),
        }),
        [_] => {}
        many => findings.push(Finding {
            path: path.to_path_buf(),
            line: many[1].0,
            rule: "wire-fingerprint",
            message: "multiple wire-fingerprint directives; keep exactly one".into(),
        }),
    }
    findings
}

/// FNV-1a over the token text of every wire-constant declaration
/// (`const <NAME>: … = … ;` where NAME is `MAGIC`, `HEADER_LEN`, or
/// `TAG_`/`VTAG_`-prefixed), tokens joined with single spaces so
/// reformatting never changes the hash.
pub fn wire_constants_hash(toks: &[Tok]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b' ');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut i = 0;
    while i + 1 < toks.len() {
        let is_decl = toks[i].kind == TokKind::Ident
            && toks[i].text == "const"
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident
                    && (t.text == "MAGIC"
                        || t.text == "HEADER_LEN"
                        || t.text.starts_with("TAG_")
                        || t.text.starts_with("VTAG_"))
            });
        if !is_decl {
            i += 1;
            continue;
        }
        // Hash to the statement-terminating `;` — the one at bracket
        // depth 0, not the array-length `;` inside `&[u8; 4]`.
        let mut depth = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            push(&t.text);
            i += 1;
        }
        push(";");
        i += 1;
    }
    h
}

fn is_punct(toks: &[Tok], i: usize, p: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

/// Index of the `(` matching the `)` at `close`.
fn match_backward(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = close;
    loop {
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, ")") => depth += 1,
            (TokKind::Punct, "(") => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i = i.checked_sub(1)?;
    }
}
