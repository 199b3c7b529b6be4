//! `mapeval` — score a PAF against the ground truth encoded in read names.
//!
//! Reads PAF from a file (or `-` for stdin) whose query names follow the
//! `simreads` convention `read{N}!{rname}!{start}!{end}!{+|-}`, and prints
//! the paper's accuracy metrics (Table 5's error-rate definition: wrong
//! primary alignments / mapped reads, with ≥10% overlap of the true
//! interval counting as correct) plus a MAPQ-stratified breakdown.
//!
//! A read's call is its *first* `tp:A:P` line (manymap writes the best
//! primary first), or its first line if none is primary.
//!
//! ```sh
//! simreads --out-ref ref.fa --out-reads reads.fa
//! manymap map ref.fa reads.fa > out.paf
//! mapeval out.paf
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::process::ExitCode;

#[derive(Clone, Copy)]
struct Truth {
    start: u64,
    end: u64,
    rev: bool,
}

struct Call {
    rname: String,
    start: u64,
    end: u64,
    rev: bool,
    mapq: u8,
}

fn parse_truth(qname: &str) -> Option<(String, Truth)> {
    let parts: Vec<&str> = qname.split('!').collect();
    if parts.len() != 5 {
        return None;
    }
    Some((
        parts[1].to_string(),
        Truth {
            start: parts[2].parse().ok()?,
            end: parts[3].parse().ok()?,
            rev: parts[4] == "-",
        },
    ))
}

fn main() -> ExitCode {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: mapeval <out.paf|->");
            return ExitCode::FAILURE;
        }
    };
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        match std::fs::File::open(&path) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("mapeval: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Keep one call per read: its first primary line, else its first line.
    // The bool records whether the kept line is a primary.
    let mut primary: HashMap<String, (String, Truth, Call, bool)> = HashMap::new();
    let mut lines = 0u64;
    for line in reader.lines() {
        // A mid-stream read error must not silently truncate the evaluation:
        // stats over a partial PAF would look plausible but be wrong.
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("mapeval: {path}: read error after line {lines}: {e}");
                return ExitCode::FAILURE;
            }
        };
        lines += 1;
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 12 {
            continue;
        }
        let qname = cols[0];
        let Some((truth_rname, truth)) = parse_truth(qname) else {
            continue;
        };
        let is_primary = cols.contains(&"tp:A:P");
        if primary.get(qname).is_some_and(|kept| kept.3 || !is_primary) {
            continue;
        }
        let call = Call {
            rname: cols[5].to_string(),
            start: cols[7].parse().unwrap_or(0),
            end: cols[8].parse().unwrap_or(0),
            rev: cols[4] == "-",
            mapq: cols[11].parse().unwrap_or(0),
        };
        primary.insert(qname.to_string(), (truth_rname, truth, call, is_primary));
    }

    let mut mapped = 0u64;
    let mut wrong = 0u64;
    let mut per_mapq: Vec<(u8, u64, u64)> = Vec::new(); // (mapq floor, mapped, wrong)
    let mut strata: HashMap<u8, (u64, u64)> = HashMap::new();
    for (truth_rname, truth, call, _) in primary.values() {
        mapped += 1;
        let inter = call
            .end
            .min(truth.end)
            .saturating_sub(call.start.max(truth.start));
        let ok = call.rname == *truth_rname
            && call.rev == truth.rev
            && inter as f64 >= 0.1 * (truth.end - truth.start).max(1) as f64;
        let bucket = call.mapq / 10 * 10;
        let e = strata.entry(bucket).or_insert((0, 0));
        e.0 += 1;
        if !ok {
            wrong += 1;
            e.1 += 1;
        }
    }
    let mut buckets: Vec<u8> = strata.keys().copied().collect();
    buckets.sort_unstable();
    for b in buckets {
        let (m, w) = strata[&b];
        per_mapq.push((b, m, w));
    }

    let mut report = String::new();
    let _ = writeln!(report, "paf lines:      {lines}");
    let _ = writeln!(report, "primary calls:  {mapped}");
    let _ = writeln!(report, "wrong calls:    {wrong}");
    let _ = writeln!(
        report,
        "error rate:     {:.3}%",
        if mapped > 0 {
            100.0 * wrong as f64 / mapped as f64
        } else {
            0.0
        }
    );
    let _ = writeln!(report, "\nmapq     mapped   wrong   err%");
    for (b, m, w) in per_mapq {
        let _ = writeln!(
            report,
            "{:>2}-{:>2} {:>9} {:>7}  {:>5.2}",
            b,
            b + 9,
            m,
            w,
            100.0 * w as f64 / m.max(1) as f64
        );
    }
    // A reader that stops early (`mapeval out.paf | head -1`) closes the
    // pipe; that is a normal end, not an error.
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(report.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("mapeval: stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}
