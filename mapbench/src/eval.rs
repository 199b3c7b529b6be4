//! Accuracy and accounting checker for PAF output.
//!
//! Every simulated read carries its true origin in its name
//! (`read{N}!{chrom}!{start}!{end}!{+|-}`). A read is scored by its *first*
//! PAF line, which is its best-scoring primary: the mapper emits primaries
//! first and by descending alignment score. The line is checked with
//! `mmm_simreads::eval::evaluate` (same rid and strand, overlap of at least
//! 10% of the true interval).
//!
//! Accounting: a read whose first line is a `tp:A:U` placeholder was
//! degraded; a read the production path never answered (no serve `REC`
//! frame) or refused counts as failed too. Reads with no PAF line at all
//! but an answer are simply unmapped.

use std::collections::HashMap;

use mmm_simreads::{evaluate, MappingCall, TrueOrigin};

/// Parse the truth a simulated read name encodes.
pub fn parse_truth(name: &str, tnames: &[String]) -> Result<TrueOrigin, String> {
    let f: Vec<&str> = name.split('!').collect();
    let bad = || format!("read name {name:?} does not encode a true origin");
    if f.len() != 5 {
        return Err(bad());
    }
    let rid = tnames.iter().position(|t| t == f[1]).ok_or_else(bad)? as u32;
    let start = f[2].parse().map_err(|_| bad())?;
    let end = f[3].parse().map_err(|_| bad())?;
    let rev = match f[4] {
        "+" => false,
        "-" => true,
        _ => return Err(bad()),
    };
    Ok(TrueOrigin {
        rid,
        start,
        end,
        rev,
    })
}

/// PAF lines grouped per read name, in output order. Each value holds the
/// read's lines verbatim, newline-terminated.
pub fn group_by_read(paf: &str) -> Result<HashMap<String, String>, String> {
    let mut out: HashMap<String, String> = HashMap::new();
    let mut current: Option<&str> = None;
    for line in paf.lines() {
        let name = line.split('\t').next().unwrap_or("");
        if line.split('\t').count() < 12 {
            return Err(format!("malformed PAF line: {line:?}"));
        }
        if current != Some(name) {
            if out.contains_key(name) {
                return Err(format!("PAF lines of read {name:?} are not contiguous"));
            }
            current = Some(name);
        }
        let e = out.entry(name.to_string()).or_default();
        e.push_str(line);
        e.push('\n');
    }
    Ok(out)
}

/// What happened to each read, and how accurate the mapped ones were.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Score {
    pub reads_in: usize,
    pub mapped: usize,
    pub correct: usize,
    pub wrong: usize,
    /// Wrong reads when each read is scored by its *last* primary line
    /// instead, the rule `mapeval` applies; shown for comparison only.
    pub wrong_last_primary: usize,
    /// First line is a `tp:A:U` placeholder.
    pub degraded: usize,
    /// Sent but never answered.
    pub unanswered: usize,
    /// Refused by the production path.
    pub refused: usize,
    pub paf_lines: usize,
}

impl Score {
    pub fn failed(&self) -> usize {
        self.degraded + self.unanswered + self.refused
    }
    /// Wrong ÷ mapped, in percent.
    pub fn error_rate_pct(&self) -> f64 {
        if self.mapped == 0 {
            return 0.0;
        }
        100.0 * self.wrong as f64 / self.mapped as f64
    }
    /// Correct ÷ mapped.
    pub fn correct_frac(&self) -> f64 {
        if self.mapped == 0 {
            return 0.0;
        }
        self.correct as f64 / self.mapped as f64
    }
    pub fn mapped_frac(&self) -> f64 {
        self.mapped as f64 / self.reads_in.max(1) as f64
    }
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.reads_in.max(1) as f64
    }
    pub fn lines_per_read(&self) -> f64 {
        self.paf_lines as f64 / self.reads_in.max(1) as f64
    }
}

/// Score `reads` (names, in input order) against their PAF lines.
/// `answered(name)` says whether the production path answered the read;
/// `refused` counts reads it turned away before they were sent.
pub fn score(
    reads: &[String],
    by_read: &HashMap<String, String>,
    tnames: &[String],
    answered: impl Fn(&str) -> bool,
    refused: usize,
) -> Result<Score, String> {
    let mut s = Score {
        reads_in: reads.len() + refused,
        refused,
        ..Default::default()
    };
    let mut truths = Vec::with_capacity(reads.len());
    let mut calls = Vec::new();
    let mut last_calls = Vec::new();
    for (i, name) in reads.iter().enumerate() {
        truths.push(parse_truth(name, tnames)?);
        if !answered(name) {
            s.unanswered += 1;
            continue;
        }
        let Some(lines) = by_read.get(name).filter(|l| !l.is_empty()) else {
            continue; // answered, no mapping
        };
        s.paf_lines += lines.lines().count();
        let first = lines.lines().next().unwrap_or("");
        if first.ends_with("tp:A:U") {
            s.degraded += 1;
            continue;
        }
        calls.push(first_call(i, first, tnames)?);
        let last_primary = lines.lines().rfind(|l| l.contains("\ttp:A:P"));
        last_calls.push(first_call(i, last_primary.unwrap_or(first), tnames)?);
    }
    let e = evaluate(&calls, &truths);
    s.mapped = e.mapped;
    s.correct = e.correct;
    s.wrong = e.wrong;
    s.wrong_last_primary = evaluate(&last_calls, &truths).wrong;
    Ok(s)
}

fn first_call(read_id: usize, line: &str, tnames: &[String]) -> Result<MappingCall, String> {
    let f: Vec<&str> = line.split('\t').collect();
    let bad = || format!("unparsable PAF line: {line:?}");
    if f.len() < 12 {
        return Err(bad());
    }
    let rid = tnames.iter().position(|t| t == f[5]).ok_or_else(bad)? as u32;
    Ok(MappingCall {
        read_id,
        rid,
        ref_start: f[7].parse().map_err(|_| bad())?,
        ref_end: f[8].parse().map_err(|_| bad())?,
        rev: f[4] == "-",
        mapq: f[11].parse().map_err(|_| bad())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tnames() -> Vec<String> {
        vec!["chr1".into(), "chr2".into()]
    }

    fn line(read: &str, strand: char, chrom: &str, start: u32, end: u32, tp: char) -> String {
        format!(
            "{read}\t2000\t0\t2000\t{strand}\t{chrom}\t100000\t{start}\t{end}\t1800\t2000\t60\ttp:A:{tp}\ts1:i:100\tAS:i:900"
        )
    }

    /// One read has two primaries: the first (best-scoring) one is right and
    /// the last one is wrong. The checker keeps the first, so the read counts
    /// as correct; a last-line rule would have scored it wrong.
    #[test]
    fn first_of_two_primaries_is_scored() {
        let a = "read0!chr1!1000!3000!+";
        let b = "read1!chr2!5000!7000!-";
        let c = "read2!chr2!8000!9000!+";
        let paf = [
            line(a, '+', "chr1", 1010, 2990, 'P'),
            line(a, '+', "chr1", 60_000, 62_000, 'P'),
            line(b, '-', "chr1", 5000, 7000, 'P'), // wrong chromosome
            line(b, '-', "chr2", 5000, 7000, 'P'), // right, but not first
            line(c, '+', "chr2", 8000, 9000, 'P'),
            line(c, '+', "chr2", 30_000, 31_000, 'P'),
            line(c, '+', "chr2", 8000, 9000, 'S'),
        ]
        .join("\n");
        let by = group_by_read(&paf).unwrap();
        let reads = vec![a.to_string(), b.to_string(), c.to_string()];
        let s = score(&reads, &by, &tnames(), |_| true, 0).unwrap();
        assert_eq!((s.mapped, s.correct, s.wrong), (3, 2, 1));
        // Keeping the last primary line instead gets a and c wrong, b right.
        assert_eq!(s.wrong_last_primary, 2);
        assert_eq!(s.paf_lines, 7);
        assert!((s.error_rate_pct() - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.failed(), 0);
    }

    #[test]
    fn degraded_unanswered_and_refused_reads_are_failures() {
        let a = "read0!chr1!1000!3000!+";
        let b = "read1!chr1!4000!6000!+";
        let c = "read2!chr2!10!2010!-";
        let d = "read3!chr2!3000!5000!+";
        let paf = format!(
            "{a}\t2000\t0\t0\t*\t*\t0\t0\t0\t0\t0\t0\ttp:A:U\n{}\n",
            line(c, '-', "chr2", 10, 2010, 'P')
        );
        let by = group_by_read(&paf).unwrap();
        let reads: Vec<String> = [a, b, c, d].iter().map(|s| s.to_string()).collect();
        // b answered without a mapping; d never answered; one more refused.
        let s = score(&reads, &by, &tnames(), |n| n != d, 1).unwrap();
        assert_eq!(s.reads_in, 5);
        assert_eq!((s.degraded, s.unanswered, s.refused), (1, 1, 1));
        assert_eq!((s.mapped, s.correct), (1, 1));
        assert!((s.failed_frac() - 0.6).abs() < 1e-12);
        assert!((s.mapped_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn split_read_groups_are_rejected() {
        let a = "read0!chr1!1000!3000!+";
        let b = "read1!chr1!4000!6000!+";
        let paf = [
            line(a, '+', "chr1", 1000, 3000, 'P'),
            line(b, '+', "chr1", 4000, 6000, 'P'),
            line(a, '+', "chr1", 9000, 9900, 'S'),
        ]
        .join("\n");
        assert!(group_by_read(&paf).is_err());
    }

    #[test]
    fn truth_parses_from_read_name() {
        let t = parse_truth("read7!chr2!10!2010!-", &tnames()).unwrap();
        assert_eq!((t.rid, t.start, t.end, t.rev), (1, 10, 2010, true));
        assert!(parse_truth("read7", &tnames()).is_err());
        assert!(parse_truth("read7!chr9!1!2!+", &tnames()).is_err());
    }
}
