//! The tree's source rules: what no type can say, held over the text.
//! Each rule is one row of `RULES`: its tokens, where it looks, where a
//! token may appear and where one must. A token matches at identifier
//! boundaries (`plain` is not in `explain`) on the raw line, comments and
//! strings included, so a rule errs toward failing, never toward passing.
//! Every file under `crates/`, `tests/`, `examples/` and `src/` is read
//! except this one, whose table names every token.

use std::path::{Path, PathBuf};

/// One source rule. Each field but `name` is a `|`-separated list. A path
/// is relative to the repository root and names a file or a directory; a
/// `*` segment stands for any one segment. A place is a path, or
/// `path fn name` for the body of the function `name` in that file: from
/// its `fn` line to the `}` at the same indent.
struct Rule {
    name: &'static str,
    /// What the rule is about. A rule with none forbids every file `within`.
    tokens: &'static str,
    /// If not empty, a line breaks the rule only if it names one of these too.
    with: &'static str,
    /// The paths the rule forbids its tokens in.
    within: &'static str,
    /// The places inside `within` where a token may appear after all.
    allowed: &'static str,
    /// The places that must name a token, each on exactly one line.
    required: &'static str,
}

const BLANK: Rule = Rule {
    name: "",
    tokens: "",
    with: "",
    within: "",
    allowed: "",
    required: "",
};

const ROOTS: &str = "crates|tests|examples|src";

#[rustfmt::skip]
const RULES: &[Rule] = &[
    // Keys and plaintext stay in the enclave (paper §III): the raw AEAD and
    // MAC primitives are named only in the crypto crate and the TEE; the
    // store seals through a `Sealer`.
    Rule { name: "L001 enclave-only crypto",
        tokens: "aead_open|aead_seal|hmac_sign|hmac_verify", within: ROOTS,
        allowed: "crates/crypto|crates/tee", ..BLANK },
    // A `Sealer` prices the storage crypto it runs (DESIGN.md §6): only
    // the profile-to-protection mapping reads the profile's crypto flags.
    Rule { name: "L006 storage crypto is priced where it runs",
        tokens: "profile.encryption|profile.authentication|charge_crypto|charge_hash",
        within: "crates/*/src", allowed: "crates/store/src/env.rs", ..BLANK },
    // A `Disk` makes a node's bytes durable and prices each access
    // (DESIGN.md §1): no node crate syncs, cuts or opens a file to write
    // it by hand, nor prices the disk itself.
    Rule { name: "L007 one module makes bytes durable and prices them",
        tokens: "sync_data|sync_all|set_len|OpenOptions|charge_ssd_append|charge_storage_read\
                 |ssd_append_ns",
        within: "crates/store/src|crates/counter/src|crates/core/src", ..BLANK },
    // Log strings and trace payloads leave the enclave: inside the trusted
    // crates none of them names secret material.
    Rule { name: "L005 no secret in a format string or trace payload",
        tokens: "plaintext|plain|decrypted|user_key|key_material|key_bytes|secret",
        with: "format!|println!|eprintln!|print!|eprint!|write!|writeln!|panic!\
               |span_with(|instant(|counter_add(|hist_record(",
        within: "crates/core|crates/store|crates/tee|crates/crypto", ..BLANK },
    Rule { name: "unsafe code is the hardware path and the fiber switch", tokens: "unsafe",
        within: "crates/crypto/src|crates/sim/src",
        allowed: "crates/crypto/src/hw.rs|crates/sim/src/stack.rs", ..BLANK },
    Rule { name: "no JSON on the trust boundary", tokens: "serde|serde_json|Serialize|Deserialize",
        within: "crates/core/src|crates/store/src|crates/counter/src|crates/tee/src|crates/crypto/src",
        ..BLANK },
    Rule { name: "no ablation switches",
        tokens: "sync_decisions|inline_maintenance|pipelined_decisions|no_block_cache\
                 |--sync-decisions|--inline-maintenance|--no-block-cache", within: ROOTS, ..BLANK },
    Rule { name: "one copy of each number",
        tokens: "enable_series|counter_add_at|gauge_set_at|hist_record_at|SeriesSnapshot|WindowCell\
                 |VtHistogram|ReadAccelStats|read_stats|SERIES_WINDOW", within: ROOTS, ..BLANK },
    Rule { name: "metric names are enums", within: "crates/*/src",
        tokens: "counter_add(\"|gauge_set(\"|hist_record(\"|counter(\"", ..BLANK },
    Rule { name: "only absorb_cluster_stats writes a gauge", tokens: "gauge_set(",
        within: "crates/*/src",
        allowed: "crates/*/src/metrics.rs|crates/bench/src/lib.rs fn absorb_cluster_stats", ..BLANK },
    Rule { name: "phases are an enum", tokens: "span(\"|span_with(\"|instant(\"",
        within: "crates/*/src", ..BLANK },
    Rule { name: "one engine contract", within: ROOTS,
        tokens: "EngineIntrospection|introspect|snapshot_readonly_txn|snapshot_retry", ..BLANK },
    Rule { name: "client code runs only inside the runtime", tokens: "in_fiber",
        within: "crates/core/src/client.rs", ..BLANK },
    Rule { name: "every cell of a node crate is a FiberCell", tokens: "RefCell",
        within: "crates/core/src|crates/store/src|crates/net/src|crates/counter/src\
                 |crates/cas/src|crates/tee/src", ..BLANK },
    Rule { name: "the fiber rules are the runtime's: no crates/lint", within: "crates/lint", ..BLANK },
    Rule { name: "one thread, no locks", within: "crates/*/src",
        tokens: "parking_lot|Mutex|RwLock|AtomicBool|AtomicI8|AtomicI16|AtomicI32|AtomicI64\
                 |AtomicIsize|AtomicPtr|AtomicU8|AtomicU16|AtomicU32|AtomicU64|AtomicUsize", ..BLANK },
    Rule { name: "the root tests take no lock", tokens: "parking_lot|Mutex|RwLock",
        within: "tests", ..BLANK },
    Rule { name: "no panics in a node crate", tokens: "deny(clippy::unwrap_used",
        required: "crates/core/src/lib.rs|crates/store/src/lib.rs|crates/net/src/lib.rs\
                   |crates/counter/src/lib.rs|crates/tee/src/lib.rs|crates/crypto/src/lib.rs\
                   |crates/cas/src/lib.rs", ..BLANK },
    Rule { name: "virtual time only", tokens: "Instant::now", required: "clippy.toml", ..BLANK },
    Rule { name: "no declassify markers, crash-point lists or lint baselines",
        tokens: "LINT-DECLASSIFY|ALL_POINTS|lint-baseline|update-baseline", within: ROOTS, ..BLANK },
    Rule { name: "one freshness check, called by log::recover", tokens: "verify_freshness",
        within: ROOTS, allowed: "crates/store/src/log.rs",
        required: "crates/store/src/log.rs fn recover", ..BLANK },
    Rule { name: "one point descent", tokens: "latest_seq_of|get_with_seq|HwCounter",
        within: "crates", ..BLANK },
    Rule { name: "one ordered map each", tokens: "SkipList|skiplist|keys_in_span",
        within: "crates|tests", ..BLANK },
    Rule { name: "one codec declaration per type", tokens: "impl Decode for", within: ROOTS,
        allowed: "crates/crypto/src/codec.rs|crates/core/src/messages.rs|crates/store/src/bloom.rs",
        required: "crates/core/src/messages.rs|crates/store/src/bloom.rs", ..BLANK },
    Rule { name: "one descriptor per table, opened in SsTable::open", tokens: "reader(",
        within: "crates/store/src/sstable.rs", allowed: "crates/store/src/sstable.rs fn open",
        required: "crates/store/src/sstable.rs fn open", ..BLANK },
    Rule { name: "a table is read by position, never by seek", tokens: "Seek|SeekFrom",
        within: "crates/store/src/sstable.rs|crates/sim/src/disk.rs", ..BLANK },
];

fn rule(name: &str) -> &'static Rule {
    RULES.iter().find(|r| r.name.starts_with(name)).unwrap()
}

fn list(field: &str) -> impl Iterator<Item = &str> {
    field.split('|').map(str::trim).filter(|s| !s.is_empty())
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if `line` names one of `tokens`. An identifier character at a
/// token's edge must not touch another one in the line.
fn names(line: &str, tokens: &str) -> bool {
    list(tokens).any(|tok| {
        line.match_indices(tok).any(|(i, _)| {
            let before = line[..i].chars().next_back().is_some_and(is_ident);
            let after = line[i + tok.len()..].chars().next().is_some_and(is_ident);
            !(before && tok.starts_with(is_ident) || after && tok.ends_with(is_ident))
        })
    })
}

/// True if `path` lies under `pattern`, segment by segment.
fn under(path: &str, pattern: &str) -> bool {
    let path: Vec<&str> = path.split('/').collect();
    let pattern: Vec<&str> = pattern.split('/').collect();
    pattern.len() <= path.len() && pattern.iter().zip(&path).all(|(p, s)| *p == "*" || p == s)
}

/// True if a line of `path` in the body of function `body` is in `place`.
fn in_place(place: &str, path: &str, body: Option<&str>) -> bool {
    match place.split_once(" fn ") {
        Some((file, name)) => under(path, file) && body == Some(name),
        None => under(path, place),
    }
}

/// Each line of `text` with its number and the function whose body holds it.
fn lines(text: &str) -> Vec<(usize, &str, Option<&str>)> {
    let mut body: Option<(&str, usize)> = None;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let indent = line.len() - line.trim_start().len();
        let head = ["fn ", "pub fn ", "pub(crate) fn "]
            .iter()
            .find_map(|p| line.trim_start().strip_prefix(p));
        if let (None, Some(head)) = (body, head) {
            if !line.trim_end().ends_with(['}', ';']) {
                body = head.split(['(', '<']).next().map(|name| (name, indent));
            }
        }
        out.push((i + 1, line, body.map(|(name, _)| name)));
        if body.is_some_and(|(_, at)| at == indent && line.trim() == "}") {
            body = None;
        }
    }
    out
}

/// Every line of the file `path`, holding `text`, that breaks `rule`, as
/// `rule path:line: source`.
fn breaches(rule: &Rule, path: &str, text: &str) -> Vec<String> {
    if !list(rule.within).any(|w| under(path, w)) {
        return Vec::new();
    }
    if rule.tokens.is_empty() {
        return vec![format!("{} {path}", rule.name)];
    }
    lines(text)
        .into_iter()
        .filter(|(_, line, body)| {
            names(line, rule.tokens)
                && (rule.with.is_empty() || names(line, rule.with))
                && !list(rule.allowed).any(|p| in_place(p, path, *body))
        })
        .map(|(n, line, _)| format!("{} {path}:{n}: {}", rule.name, line.trim()))
        .collect()
}

/// Every required place of `rule` that does not name a token on exactly
/// one line.
fn missing(rule: &Rule, root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for place in list(rule.required) {
        let path = place.split(" fn ").next().unwrap_or(place);
        let text = std::fs::read_to_string(root.join(path)).unwrap_or_default();
        let count = lines(&text)
            .into_iter()
            .filter(|(_, line, body)| in_place(place, path, *body) && names(line, rule.tokens))
            .count();
        if count != 1 {
            let name = rule.name;
            out.push(format!("{name} {place}: named on {count} lines, not one"));
        }
    }
    out
}

/// Every file under `dir`, but in a `target` directory, as (path, text).
fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        let rel = rel.replace('\\', "/");
        if path.is_dir() && !path.ends_with("target") {
            walk(root, &path, out);
        } else if path.is_file() && rel != "tests/source_rules.rs" {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            out.push((rel, text));
        }
    }
}

#[test]
fn the_tree_keeps_every_source_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in list(ROOTS) {
        walk(root, &root.join(top), &mut files);
    }
    assert!(files.len() > 50, "only {} files read", files.len());
    let mut broken: Vec<String> = RULES.iter().flat_map(|r| missing(r, root)).collect();
    for (path, text) in &files {
        broken.extend(RULES.iter().flat_map(|r| breaches(r, path, text)));
    }
    let broken = broken.join("\n");
    assert!(broken.is_empty(), "source rules broken:\n{broken}");
}

#[test]
fn l001_flags_crypto_outside_trusted_modules() {
    let l001 = rule("L001");
    let call = "let x = aead_open(&k, &n, b\"\", ct);\n";
    let found = breaches(l001, "crates/core/src/node.rs", call);
    let want = format!(
        "L001 enclave-only crypto crates/core/src/node.rs:1: {}",
        call.trim()
    );
    assert_eq!(found, [want]);
    // The same token inside the crypto crate is fine; the store seals
    // through a `Sealer`, so a raw seal in a store file is a breach.
    let open = "aead_open(&k, &n, aad, ct);\n";
    assert!(breaches(l001, "crates/crypto/src/lib.rs", open).is_empty());
    let seal = "aead_seal(&k, &n, aad, plain);\n";
    assert_eq!(
        breaches(l001, "crates/store/src/memtable.rs", seal).len(),
        1
    );
}

#[test]
fn l006_flags_a_hand_placed_crypto_charge() {
    let l006 = rule("L006");
    let charge = "self.env.charge_crypto(value.len());\n";
    let want = format!(
        "L006 storage crypto is priced where it runs crates/store/src/memtable.rs:1: {}",
        charge.trim()
    );
    assert_eq!(
        breaches(l006, "crates/store/src/memtable.rs", charge),
        [want]
    );
    let flag = "if self.env.profile.authentication {\n";
    assert_eq!(breaches(l006, "crates/store/src/log.rs", flag).len(), 1);
    // The one mapping from a profile to a `Protection` reads the flags.
    let mapping = "match (profile.encryption, profile.authentication) {\n";
    assert!(breaches(l006, "crates/store/src/env.rs", mapping).is_empty());
}

#[test]
fn l007_flags_a_durable_write_outside_the_disk() {
    let l007 = rule("L007");
    let sync = "file.sync_data()?;\n";
    let want = format!(
        "L007 one module makes bytes durable and prices them crates/store/src/log.rs:1: {}",
        sync.trim()
    );
    assert_eq!(breaches(l007, "crates/store/src/log.rs", sync), [want]);
    for line in [
        "let file = OpenOptions::new().write(true).open(path)?;\n",
        "file.set_len(recovered.verified_len)?;\n",
        "file.sync_all()?;\n",
        "self.env.charge_ssd_append(buf.len());\n",
        "env.charge_storage_read(meta_len as usize);\n",
        "runtime::sleep(costs.ssd_append_ns(TeeMode::Scone, raw.len()));\n",
    ] {
        for path in [
            "crates/store/src/sstable.rs",
            "crates/counter/src/rote.rs",
            "crates/core/src/clog.rs",
        ] {
            assert_eq!(breaches(l007, path, line).len(), 1, "{path}: {line}");
        }
        // The disk itself runs them, and a crate outside the node's
        // storage is out of scope.
        assert!(breaches(l007, "crates/sim/src/disk.rs", line).is_empty());
        assert!(breaches(l007, "crates/bench/src/lib.rs", line).is_empty());
    }
    // A test that bounds a flush asks the disk for its price.
    let price = "let one_flush = e.disk().append_ns(0);\n";
    assert!(breaches(l007, "crates/core/src/clog.rs", price).is_empty());
}

#[test]
fn l005_flags_secret_interpolation_in_trusted_regions() {
    let at = |path, line: &str| breaches(rule("L005"), path, line).len();
    // A format string interpolating secret material inside a trusted
    // region is a declassification side channel.
    let bad = "let msg = format!(\"v={plaintext:?}\");\n";
    assert_eq!(at("crates/store/src/log.rs", bad), 1);
    // In argument position too, and trace payloads are sinks as well.
    let arg = "println!(\"k = {}\", user_key);\n";
    assert_eq!(at("crates/core/src/node.rs", arg), 1);
    let trace = "treaty_sim::obs::span_with(\"g\", &[(\"k\", user_key)]);\n";
    assert_eq!(at("crates/core/src/node.rs", trace), 1);
    // Benign interpolation in a trusted region is fine, naming a secret
    // without a sink is fine, and untrusted regions are out of scope.
    let good = "let msg = format!(\"gen {gen} at {off}\");\n";
    assert_eq!(at("crates/store/src/log.rs", good), 0);
    let no_sink = "let n = plaintext.len();\n";
    assert_eq!(at("crates/store/src/log.rs", no_sink), 0);
    assert_eq!(at("crates/bench/src/lib.rs", bad), 0);
    // Identifier boundaries: `explain` is not `plain`.
    let boundary = "let msg = format!(\"see {explain}\");\n";
    assert_eq!(at("crates/store/src/log.rs", boundary), 0);
}

#[test]
fn a_place_can_be_one_function_body() {
    let src =
        "impl S {\n    fn absorb_cluster_stats(o: &Obs) {\n        for (g, v) in t {\n            \
               o.gauge_set(g, v);\n        }\n    }\n    fn one() -> u8 { 1 }\n}\n\
               fn later(o: &Obs) {\n    o.gauge_set(g, 1);\n}\n";
    let found = breaches(rule("only absorb"), "crates/bench/src/lib.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("lib.rs:10:"), "{found:?}");
}
