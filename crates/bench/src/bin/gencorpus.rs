//! Writes the synthetic three-implementation corpus to disk as `.jir`
//! files, so the `spo` CLI (and anything else) can consume it:
//!
//! ```text
//! cargo run -p spo-bench --release --bin gencorpus -- --out /tmp/corpus --scale 0.1
//! spo diff /tmp/corpus/prelude.jir /tmp/corpus/jdk.jir \
//!      --vs /tmp/corpus/prelude.jir /tmp/corpus/harmony.jir
//! ```
//!
//! Emits `prelude.jir`, one `<lib>.jir` per implementation (figures
//! included), and `catalog.txt` with the ground-truth bug census.

use spo_corpus::{generate, CorpusConfig, Lib};
use std::fmt::Write as _;
use std::path::PathBuf;

fn main() {
    let mut out_dir = PathBuf::from("corpus-out");
    // `SPO_SCALE` (the knob every table binary honours) seeds the default;
    // `--scale` still wins when both are given.
    let mut scale = std::env::var("SPO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1f64);
    let mut seed = CorpusConfig::default().seed;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_dir = PathBuf::from(args.next().expect("--out needs a path")),
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number")
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number")
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let corpus = generate(&CorpusConfig { seed, scale });

    std::fs::write(out_dir.join("prelude.jir"), spo_corpus::prelude_source())
        .expect("write prelude");
    let (mut entry_points, mut methods, mut bytes) = (0usize, 0usize, 0usize);
    for lib in Lib::ALL {
        let src = corpus.library_source(lib);
        let path = out_dir.join(format!("{lib}.jir"));
        std::fs::write(&path, &src).expect("write library source");
        eprintln!("wrote {} ({} bytes)", path.display(), src.len());
        let program = corpus.program(lib);
        entry_points += spo_resolve::entry_points(program).len();
        methods += program.all_methods().count();
        bytes += src.len();
    }

    let mut catalog = String::from("# ground-truth bug census (id lib category kind culprit)\n");
    for bug in &corpus.catalog.bugs {
        writeln!(
            catalog,
            "{}\t{}\t{:?}\t{:?}\t{}",
            bug.id, bug.buggy_lib, bug.category, bug.kind, bug.culprit
        )
        .unwrap();
    }
    std::fs::write(out_dir.join("catalog.txt"), catalog).expect("write catalog");
    eprintln!("wrote {}", out_dir.join("catalog.txt").display());
    // One greppable line for sweep scripts.
    println!("corpus scale={scale} entry_points={entry_points} methods={methods} bytes={bytes}");
}
