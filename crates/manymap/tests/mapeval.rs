//! `mapeval` scoring rules and its behaviour on a closed stdout.

use std::io::Write;
use std::process::{Command, Stdio};

const MAPEVAL: &str = env!("CARGO_BIN_EXE_mapeval");

/// One PAF line for read `read1!chr1!1000!2000!+` mapped to `chr1:start`.
fn paf_line(start: u64, tp: &str) -> String {
    format!(
        "read1!chr1!1000!2000!+\t1000\t0\t1000\t+\tchr1\t100000\t{start}\t{}\t900\t1000\t60\ttp:A:{tp}\n",
        start + 1000
    )
}

fn run_on(paf: &str) -> String {
    let dir = std::env::temp_dir().join(format!("mapeval-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.paf", paf.len()));
    std::fs::write(&path, paf).unwrap();
    let out = Command::new(MAPEVAL).arg(&path).output().unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn first_primary_line_is_the_call() {
    // The best primary comes first; a later primary at a repeat copy must
    // not replace it.
    let paf = paf_line(1000, "P") + &paf_line(50_000, "P");
    let report = run_on(&paf);
    assert!(report.contains("primary calls:  1\n"), "{report}");
    assert!(report.contains("wrong calls:    0\n"), "{report}");

    // The rule is positional: the same two lines swapped score as wrong.
    let paf = paf_line(50_000, "P") + &paf_line(1000, "P");
    assert!(run_on(&paf).contains("wrong calls:    1\n"));

    // A primary still wins over an earlier secondary.
    let paf = paf_line(50_000, "S") + &paf_line(1000, "P");
    assert!(run_on(&paf).contains("wrong calls:    0\n"));
}

#[test]
fn closed_stdout_exits_cleanly() {
    let mut child = Command::new(MAPEVAL)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the reading end before mapeval has read its input, so its
    // report is written into a pipe nobody reads.
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(paf_line(1000, "P").as_bytes()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
