//! The lint catalogue: the six invariant checks and their metadata.
//!
//! Every lint has a stable ID (`L001` …) that diagnostics, fixtures,
//! allow markers and the README catalogue all reference. IDs are never
//! reused; retiring a lint retires its number.

use crate::engine::{Diagnostic, SourceFile};
use crate::lexer::{Token, TokenKind};
use crate::policy;

/// Catalogue metadata for one lint (drives `varbench lint --list` and
/// the README table).
pub struct LintInfo {
    /// Stable diagnostic ID.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line statement of the invariant the lint guards.
    pub summary: &'static str,
}

/// The full catalogue, in ID order.
pub const CATALOGUE: &[LintInfo] = &[
    LintInfo {
        id: "L001",
        name: "map-iter-order",
        summary: "no HashMap/HashSet in library code: iteration order would leak \
                  nondeterminism into results (use BTreeMap/BTreeSet or sort)",
    },
    LintInfo {
        id: "L002",
        name: "no-wallclock",
        summary: "Instant/SystemTime only in the registered timing module: \
                  measurements must be pure functions of seeds, never of the clock",
    },
    LintInfo {
        id: "L003",
        name: "unsafe-hygiene",
        summary: "every unsafe needs an adjacent `// SAFETY:` comment and every \
                  crate root must carry #![forbid(unsafe_code)] or be allowlisted",
    },
    LintInfo {
        id: "L004",
        name: "cache-key-firewall",
        summary: "no ad-hoc cache-key formatting outside cache.rs: key segments \
                  are rendered only by MeasureKey's canonical form",
    },
    LintInfo {
        id: "L005",
        name: "no-alloc-region",
        summary: "fn bodies marked `lint: no-alloc` (epoch loop, GEMM kernels) \
                  must not allocate (Vec::new/vec!/push/clone/collect/format!/...)",
    },
    LintInfo {
        id: "L006",
        name: "no-fma-contraction",
        summary: "mul_add only in golden-tested kernel files: a fused \
                  multiply-add changes bits vs the committed artifacts",
    },
];

/// Runs every lint over one parsed file.
pub fn check(file: &SourceFile<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    map_iter_order(file, &mut out);
    no_wallclock(file, &mut out);
    unsafe_hygiene(file, &mut out);
    cache_key_firewall(file, &mut out);
    no_alloc_region(file, &mut out);
    no_fma_contraction(file, &mut out);
    out
}

fn diag(file: &SourceFile<'_>, t: &Token, lint: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: file.rel_path.to_string(),
        line: t.line,
        lint,
        message,
    }
}

/// Idents in non-test library code, with their token index.
fn lib_idents<'f>(file: &'f SourceFile<'_>) -> impl Iterator<Item = (usize, &'f Token)> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TokenKind::Ident && !file.in_test_code(t.start))
}

/// L001: hash-map types are banned from library code — their iteration
/// order varies run to run, which is exactly the silent nondeterminism
/// the bit-identity rules exist to prevent. Even membership-only uses
/// are flagged (and may be allow-marked): the next edit that iterates
/// one would not be caught by any test that passes today.
fn map_iter_order(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !policy::is_lib_source(file.rel_path) {
        return;
    }
    for (_, t) in lib_idents(file) {
        let name = t.text(file.src);
        if name == "HashMap" || name == "HashSet" {
            out.push(diag(
                file,
                t,
                "L001",
                format!(
                    "{name} in library code: iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet or an explicitly sorted Vec"
                ),
            ));
        }
    }
}

/// L002: wall-clock reads are banned outside the timing harness — a
/// measurement that observes the clock is not a pure function of its
/// seeds, and cached replays would diverge from fresh runs.
fn no_wallclock(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !policy::is_lib_source(file.rel_path) || policy::WALLCLOCK_FILES.contains(&file.rel_path) {
        return;
    }
    for (_, t) in lib_idents(file) {
        let name = t.text(file.src);
        if name == "Instant" || name == "SystemTime" {
            out.push(diag(
                file,
                t,
                "L002",
                format!(
                    "{name} outside the timing module: results must be pure \
                     functions of seeds (timing belongs in {})",
                    policy::WALLCLOCK_FILES.join(", ")
                ),
            ));
        }
    }
}

/// L003: `unsafe` hygiene. Applies to *all* code, tests included — an
/// unexplained unsafe block is a review hazard wherever it lives.
fn unsafe_hygiene(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    // (a) every `unsafe` token needs a `SAFETY:` comment on its line or
    // within the three lines above it.
    for t in &file.tokens {
        if t.kind != TokenKind::Ident || t.text(file.src) != "unsafe" {
            continue;
        }
        let covered = file.tokens.iter().any(|c| {
            matches!(c.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && c.line + 3 >= t.line
                && c.line <= t.line
                && c.text(file.src).contains("SAFETY:")
        });
        if !covered {
            out.push(diag(
                file,
                t,
                "L003",
                "unsafe without an adjacent `// SAFETY:` comment explaining why \
                 the invariants hold"
                    .to_string(),
            ));
        }
    }
    // (b) crate roots must forbid unsafe code (or be allowlisted).
    if policy::is_crate_root(file.rel_path)
        && !policy::UNSAFE_ROOT_ALLOWLIST
            .iter()
            .any(|(p, _)| *p == file.rel_path)
        && !has_forbid_unsafe(file)
    {
        out.push(Diagnostic {
            path: file.rel_path.to_string(),
            line: 1,
            lint: "L003",
            message: "crate root missing #![forbid(unsafe_code)] (add it, or register \
                      the root in policy::UNSAFE_ROOT_ALLOWLIST with a justification)"
                .to_string(),
        });
    }
}

/// Whether the token stream contains `forbid ( unsafe_code )`.
fn has_forbid_unsafe(file: &SourceFile<'_>) -> bool {
    let code: Vec<&Token> = file
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    code.windows(4).any(|w| {
        w[0].text(file.src) == "forbid"
            && w[1].text(file.src) == "("
            && w[2].text(file.src) == "unsafe_code"
            && w[3].text(file.src) == ")"
    })
}

/// L004: the cache-key firewall. The canonical key form decides whether
/// two measurements may share a cached record; formatting key segments
/// anywhere except `canonical()` would let records alias or fork the
/// key space.
fn cache_key_firewall(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !policy::is_lib_source(file.rel_path) || file.rel_path == policy::KEY_FORMAT_HOME {
        return;
    }
    for t in &file.tokens {
        if !matches!(t.kind, TokenKind::Str | TokenKind::RawStr) || file.in_test_code(t.start) {
            continue;
        }
        let text = t.text(file.src);
        if let Some(m) = policy::KEY_FORMAT_MARKERS
            .iter()
            .find(|m| text.contains(**m))
        {
            out.push(diag(
                file,
                t,
                "L004",
                format!(
                    "ad-hoc cache-key formatting (literal contains \"{m}\"): key \
                     segments are rendered only by canonical() in {}",
                    policy::KEY_FORMAT_HOME
                ),
            ));
        }
    }
}

/// Allocation-introducing names banned inside `lint: no-alloc` regions.
const ALLOC_CALLS: &[&str] = &[
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "push",
    "extend",
    "reserve",
];

/// L005: marked hot regions must stay allocation-free. The epoch loop
/// and the GEMM kernels earned their zero-alloc status benchmark by
/// benchmark; an accidental `clone()` in one would be invisible to the
/// correctness tests and only show up as a perf-gate regression later.
fn no_alloc_region(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    let regions = file.no_alloc_regions();
    if regions.is_empty() {
        return;
    }
    let in_region = |off: usize| regions.iter().any(|r| r.contains(&off));
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !in_region(t.start) {
            continue;
        }
        let name = t.text(file.src);
        let next = |k: usize| {
            file.tokens[i + 1..]
                .iter()
                .filter(|n| !matches!(n.kind, TokenKind::LineComment | TokenKind::BlockComment))
                .nth(k)
                .map(|n| n.text(file.src))
        };
        let hit = ALLOC_CALLS.contains(&name)
            || ((name == "vec" || name == "format") && next(0) == Some("!"))
            || ((name == "Vec" || name == "Box" || name == "String")
                && next(0) == Some(":")
                && next(1) == Some(":")
                && next(2) == Some("new"));
        if hit {
            out.push(diag(
                file,
                t,
                "L005",
                format!("`{name}` allocates inside a `lint: no-alloc` region"),
            ));
        }
    }
}

/// L006: `mul_add` contracts a multiply and an add into one fused
/// operation with a single rounding — different bits than the two-step
/// form the committed artifacts were produced with. Confined to kernel
/// files whose exact accumulation order is pinned by golden tests.
fn no_fma_contraction(file: &SourceFile<'_>, out: &mut Vec<Diagnostic>) {
    if !policy::is_lib_source(file.rel_path) || policy::FMA_KERNEL_FILES.contains(&file.rel_path) {
        return;
    }
    for (_, t) in lib_idents(file) {
        if t.text(file.src) == "mul_add" {
            out.push(diag(
                file,
                t,
                "L006",
                format!(
                    "mul_add outside the golden-tested kernel files ({}): FMA \
                     contraction changes result bits",
                    policy::FMA_KERNEL_FILES.join(", ")
                ),
            ));
        }
    }
}
