//! The retired `--vertical` flag: it still parses, prints one note on
//! stderr and changes nothing else, while its old knobs are usage errors.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sad(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sad")).args(args).output().expect("sad runs")
}

/// Stdout without the `;` comment lines, which carry wall-clock seconds.
fn body(out: &Output) -> String {
    let text = String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8");
    text.lines().filter(|l| !l.starts_with(';')).map(|l| format!("{l}\n")).collect()
}

/// The long, closely related family on which vertical mode used to cut
/// anchor-delimited blocks.
fn family() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sad-retired-vertical-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("long.fa");
    let out =
        sad(&["generate", "--n", "8", "--len", "1500", "--relatedness", "120", "--seed", "5"]);
    assert!(out.status.success());
    std::fs::write(&path, out.stdout).unwrap();
    path
}

#[test]
fn vertical_prints_the_plain_body_on_every_backend() {
    let path = family();
    let input = path.to_str().unwrap();
    for backend in [&["distributed", "--p", "4"][..], &["rayon", "--threads", "4"], &["sequential"]]
    {
        let mut plain = vec!["align", input, "--backend"];
        plain.extend(backend);
        let mut vertical = plain.clone();
        vertical.push("--vertical");
        let (plain, vertical) = (sad(&plain), sad(&vertical));
        assert!(plain.status.success() && vertical.status.success(), "{backend:?}");
        assert_eq!(body(&vertical), body(&plain), "{backend:?}");
        let note = String::from_utf8(vertical.stderr).unwrap();
        assert_eq!(note, "note: --vertical is retired; aligning whole-length\n", "{backend:?}");
        assert!(plain.stderr.is_empty(), "{backend:?}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn old_vertical_knobs_exit_2_with_usage() {
    for knob in [["--max-block", "256"], ["--seam-window", "8"]] {
        for vertical in [&[][..], &["--vertical"]] {
            let mut argv = vec!["align", "in.fa"];
            argv.extend(vertical);
            argv.extend(knob);
            let out = sad(&argv);
            assert_eq!(out.status.code(), Some(2), "{argv:?}");
            assert!(out.stdout.is_empty(), "{argv:?}");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains(&format!("unexpected argument {:?}", knob[0])), "{err}");
            assert!(err.contains("usage:"), "{err}");
        }
    }
}
