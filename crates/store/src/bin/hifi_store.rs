//! Store maintenance CLI: inspect, verify, and garbage-collect an artifact
//! store directory.
//!
//! ```text
//! hifi-store stats  <root>              object count and total bytes
//! hifi-store verify <root>              re-checksum every object
//! hifi-store gc     <root> <max-bytes>  evict LRU objects over the budget
//! ```
//!
//! `stats` prints `objects N` / `bytes N` lines (scripts parse them).

use std::process::ExitCode;

use hifi_store::ArtifactStore;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hifi-store stats <root>\n       hifi-store verify <root>\n       hifi-store gc <root> <max-bytes>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, root) = match (args.first(), args.get(1)) {
        (Some(cmd), Some(root)) => (cmd.as_str(), root.as_str()),
        _ => return usage(),
    };
    let store = match ArtifactStore::open(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hifi-store: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "stats" => {
            let (objects, bytes) = store.usage();
            println!("objects {objects}");
            println!("bytes {bytes}");
            ExitCode::SUCCESS
        }
        "verify" => match store.verify() {
            Ok((intact, corrupt)) => {
                println!("intact {intact}");
                println!("corrupt {corrupt}");
                if corrupt == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("hifi-store: {e}");
                ExitCode::FAILURE
            }
        },
        "gc" => {
            let Some(max_bytes) = args.get(2).and_then(|s| s.parse::<u64>().ok()) else {
                return usage();
            };
            match store.gc(max_bytes) {
                Ok(evicted) => {
                    let (objects, bytes) = store.usage();
                    println!("evicted {evicted}");
                    println!("objects {objects}");
                    println!("bytes {bytes}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("hifi-store: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
