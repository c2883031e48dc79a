//! Fingerprints the source that decides what a cached sweep point means,
//! for `hira_bench::cache_salt`: the simulator crates' sources (with the
//! workload crate's embedded data) and this crate's `src/lib.rs`. Writes
//! the digest, 16 hex digits, to `$OUT_DIR/source_digest`.

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

const SOURCES: [&str; 6] = [
    "../dram/src",
    "../core/src",
    "../workload/src",
    "../workload/data",
    "../sim/src",
    "src/lib.rs",
];

fn collect(path: &Path, files: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in fs::read_dir(path).expect("readable source directory") {
            collect(&entry.expect("directory entry").path(), files);
        }
    } else {
        files.push(path.to_path_buf());
    }
}

fn main() {
    let mut files = Vec::new();
    for source in SOURCES {
        println!("cargo:rerun-if-changed={source}");
        collect(Path::new(source), &mut files);
    }
    files.sort();
    // Paths and contents hash with their lengths, so no two file sets
    // feed the hasher the same stream.
    let mut hasher = DefaultHasher::new();
    for file in &files {
        file.hash(&mut hasher);
        fs::read(file)
            .expect("readable source file")
            .hash(&mut hasher);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let digest = format!("{:016x}", hasher.finish());
    fs::write(out.join("source_digest"), digest).expect("writable OUT_DIR");
}
