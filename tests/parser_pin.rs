//! Pins the `.jir` front end's output: parsing the default gencorpus
//! corpus (scale 0.1: the prelude layered under each of the three
//! libraries) and every `examples/jir` fixture must print and hash to the
//! constants recorded here. A change to the lexer or parser that alters
//! what a program parses to, even in a way no analysis notices, fails
//! this test.

use spo_corpus::{generate, CorpusConfig, Lib};
use spo_jir::{parse_into, print_program, structure_hash, Fnv64, Program};

/// FNV-64 of `print_program`'s output and `structure_hash`, per input.
const PINNED: [(&str, u64, u64); 5] = [
    ("jdk", 0xc0b292714ac1121b, 0xfea7ad264ffed6bd),
    ("harmony", 0x4fdff6d59558a83b, 0x5a69d4668d04a463),
    ("classpath", 0x610a1e9ae102c7f8, 0xd4242d3ffb10b4e8),
    (
        "figure1_harmony.jir",
        0x2a7d09a8829f9f86,
        0xa8bf5e1997536777,
    ),
    ("figure1_jdk.jir", 0xc46d9c62e01adfd1, 0x047f3fdc50b44913),
];

fn fingerprint(program: &Program) -> (u64, u64) {
    let mut h = Fnv64::new();
    h.write(print_program(program).as_bytes());
    (h.finish(), structure_hash(program))
}

fn parse(sources: &[&str]) -> Program {
    let mut program = Program::new();
    for src in sources {
        parse_into(src, &mut program).expect("pinned input parses cleanly");
    }
    program
}

#[test]
fn parser_output_matches_the_pinned_hashes() {
    let mut got = Vec::new();
    let corpus = generate(&CorpusConfig {
        scale: 0.1,
        ..CorpusConfig::default()
    });
    let prelude = spo_corpus::prelude_source();
    for lib in Lib::ALL {
        let program = parse(&[&prelude, &corpus.library_source(lib)]);
        let (print, structure) = fingerprint(&program);
        got.push((lib.name().to_owned(), print, structure));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/jir");
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "jir"))
        .collect();
    fixtures.sort();
    for path in fixtures {
        let src = std::fs::read_to_string(&path).unwrap();
        let (print, structure) = fingerprint(&parse(&[&src]));
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        got.push((name, print, structure));
    }
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, p, s)| (n.as_str(), *p, *s)).collect();
    assert_eq!(got, PINNED, "front-end output drifted");
}
