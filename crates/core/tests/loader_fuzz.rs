//! Seeded mutation fuzzer over every artifact loader: a corrupt or
//! hostile document must come back as `Ok` or `Err`, never as a panic.
//!
//! Std only, driven by the in-tree `osa_nn::Rng`. Each case starts from a
//! valid document and stacks one to three mutations: a bit flip, a
//! truncation, a splice of `1e999`, `-0`, `"` or the `\u0000` escape,
//! either inserted at a random byte or replacing a random number token
//! (so header dimensions, versions and weights all get hit), or a
//! structural edit that duplicates or deletes one whole object of a
//! `layers` array (so well-formed nets whose widths do not chain get hit).
//!
//! The default run takes about a second. `OSA_FUZZ_CASES=<n>` sets the
//! number of cases per loader for a long run, e.g.
//! `OSA_FUZZ_CASES=20000 cargo test -p osa-core --release --test loader_fuzz`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use osa_core::prelude::*;
use osa_nn::prelude::{LayerSpec, Rng, Sequential, Tensor, Workspace};
use osa_pensieve::{PensieveAgent, PensieveConfig};
use osa_trace::io::{traces_from_json, traces_to_json};
use osa_trace::Trace;

const DEFAULT_CASES: usize = 1000;

const SPLICES: [&str; 4] = ["1e999", "-0", "\"", "\\u0000"];

fn cases() -> usize {
    std::env::var("OSA_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// Byte offsets of every number token that follows `:`, `,` or `[`.
fn number_starts(doc: &[u8]) -> Vec<usize> {
    (1..doc.len())
        .filter(|&i| {
            matches!(doc[i - 1], b':' | b',' | b'[') && matches!(doc[i], b'-' | b'0'..=b'9')
        })
        .collect()
}

/// Byte ranges of the objects directly inside the first `"layers"`
/// array; empty when the document has none or earlier mutations broke
/// its nesting.
fn layer_objects(doc: &[u8]) -> Vec<(usize, usize)> {
    const KEY: &[u8] = b"\"layers\":[";
    let Some(open) = doc.windows(KEY.len()).position(|w| w == KEY) else {
        return Vec::new();
    };
    let mut objects = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0, false, false);
    for (i, &b) in doc.iter().enumerate().skip(open + KEY.len()) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' | b']' if depth == 0 => return objects,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 && b == b'}' {
                    objects.push((start, i + 1));
                }
            }
            _ => {}
        }
    }
    Vec::new()
}

/// Apply one random mutation in place.
fn mutate(doc: &mut Vec<u8>, rng: &mut Rng) {
    if doc.is_empty() {
        return;
    }
    let at = rng.below(doc.len());
    match rng.below(5) {
        0 => doc[at] ^= 1 << rng.below(8),
        1 => doc.truncate(at),
        2 => {
            let lit = SPLICES[rng.below(SPLICES.len())].bytes();
            doc.splice(at..at, lit);
        }
        3 => {
            let objects = layer_objects(doc);
            if objects.is_empty() {
                return;
            }
            let k = rng.below(objects.len());
            let (s, e) = objects[k];
            if rng.below(2) == 0 {
                let copy = doc[s..e].to_vec();
                doc.splice(e..e, std::iter::once(b',').chain(copy));
            } else if k + 1 < objects.len() {
                doc.drain(s..objects[k + 1].0);
            } else if k > 0 {
                doc.drain(objects[k - 1].1..e);
            } else {
                doc.drain(s..e);
            }
        }
        _ => {
            let starts = number_starts(doc);
            if starts.is_empty() {
                return;
            }
            let s = starts[rng.below(starts.len())];
            let len = doc[s..]
                .iter()
                .position(|&b| !matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                .unwrap_or(doc.len() - s);
            let lit = SPLICES[rng.below(SPLICES.len())].bytes();
            doc.splice(s..s + len, lit);
        }
    }
}

/// Run `load` on `cases()` mutants of `good`; fail with the reproducing
/// seed, case and document if any of them panics.
fn fuzz(name: &str, seed: u64, good: &str, load: impl Fn(&str) -> bool) {
    assert!(load(good), "{name}: the unmutated document must load");
    let mut rng = Rng::seed_from_u64(seed);
    let (mut ok, mut err) = (0usize, 0usize);
    for case in 0..cases() {
        let mut doc = good.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut doc, &mut rng);
        }
        // Loaders take `&str`: a flip that breaks UTF-8 is replaced the
        // way any text reader would.
        let text = String::from_utf8_lossy(&doc);
        match catch_unwind(AssertUnwindSafe(|| load(&text))) {
            Ok(true) => ok += 1,
            Ok(false) => err += 1,
            Err(_) => {
                let head: String = text.chars().take(400).collect();
                panic!("{name} panicked (seed {seed}, case {case}) on: {head}");
            }
        }
    }
    // Mutations land on weights as often as on structure, so both
    // outcomes must show up; all-Ok would mean the mutator is inert.
    assert!(err > 0, "{name}: no mutant was rejected ({ok} loaded)");
}

fn tiny_agents(n: u64) -> Vec<PensieveAgent> {
    (0..n)
        .map(|s| PensieveAgent::new(PensieveConfig::tiny(), &mut Rng::seed_from_u64(s)))
        .collect()
}

/// A net that loads must also run: each one takes a 1-row zero batch,
/// so a document that loads but panics on first use counts as a panic.
#[test]
fn net_spec_loader_never_panics() {
    let doc = tiny_agents(1)[0].actor_critic().actor.to_json();
    fuzz("NetSpec", 1, &doc, |t| match Sequential::from_json(t) {
        Ok(mut net) => {
            let spec = net.to_spec();
            let in_dim = spec.layers.iter().find_map(LayerSpec::widths);
            let x = Tensor::zeros(1, in_dim.map_or(1, |(i, _)| i));
            net.forward_ws(&x, &mut Workspace::new());
            true
        }
        Err(_) => false,
    });
}

#[test]
fn pensieve_agent_loader_never_panics() {
    let doc = tiny_agents(1)[0].to_json();
    fuzz("PensieveAgent", 2, &doc, |t| {
        PensieveAgent::from_json(t).is_ok()
    });
}

#[test]
fn ensemble_loader_never_panics() {
    let doc = PensieveEnsemble::agents_to_json(&tiny_agents(2)).unwrap();
    fuzz("PensieveEnsemble", 3, &doc, |t| {
        PensieveEnsemble::from_json(t).is_ok()
    });
}

#[test]
fn trace_loader_never_panics() {
    let traces: Vec<Trace> = (0..3)
        .map(|i| Trace::new(format!("t{i}"), 1.0, vec![0.5 + i as f32, 2.25, 1.0 / 3.0]))
        .collect();
    let doc = traces_to_json(&traces).unwrap();
    fuzz("traces", 4, &doc, |t| traces_from_json(t).is_ok());
}
