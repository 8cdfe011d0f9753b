//! Writes a traced run's spans out when the benchmark ends, one line per
//! span, to `.perfbench-out/spans-<workload>.tsv` under the working
//! directory (the checkout root).

use crate::report::Outcome;
use crate::span::{Role, ThreadSpans, NO_PARENT};
use std::io::{BufWriter, Write};

pub fn write(workload: &str, threads: &[ThreadSpans], out: &mut Outcome) {
    let path = std::path::Path::new(".perfbench-out").join(format!("spans-{workload}.tsv"));
    match try_write(&path, threads) {
        Ok(n) => out.note(format!("trace: {n} spans written to {}", path.display())),
        Err(e) => out.note(format!(
            "trace: spans not written to {}: {e}",
            path.display()
        )),
    }
}

fn try_write(path: &std::path::Path, threads: &[ThreadSpans]) -> std::io::Result<usize> {
    std::fs::create_dir_all(path.parent().expect("path has a parent"))?;
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "thread\trole\tindex\tparent\tname\trank\tid\tstart_ns\tend_ns"
    )?;
    let mut n = 0;
    for (t, ts) in threads.iter().enumerate() {
        let role = match ts.role {
            Role::App(r) => format!("app{r}"),
            Role::Other => "other".to_string(),
        };
        for (i, s) in ts.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{t}\t{role}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name.label(),
                s.rank,
                s.id,
                s.start,
                s.end
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}
