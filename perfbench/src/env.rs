//! The environment block printed with every run: recorded, never gated.

use std::path::Path;

/// One JSON object describing the machine, toolchain, source tree and seed.
pub fn block(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lines: Vec<String> = crate_lines(Path::new("."))
        .into_iter()
        .map(|(name, n)| format!("\"{name}\":{n}"))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"rustc\":\"{}\",\"rustflags\":\"{}\",\"target_features\":\"{}\",\"commit\":\"{}\",\"seed\":{seed},\"non_test_lines\":{{{}}}}}",
        escape(env!("PERFBENCH_RUSTC")),
        escape(env!("PERFBENCH_RUSTFLAGS")),
        target_features(),
        escape(&commit()),
        lines.join(",")
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Vector features the binary was compiled for.
fn target_features() -> String {
    let mut on = Vec::new();
    if cfg!(target_feature = "sse2") {
        on.push("sse2");
    }
    if cfg!(target_feature = "avx2") {
        on.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        on.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        on.push("avx512f");
    }
    on.join("+")
}

/// The commit of the checkout, read from `.git`; `unknown` outside a git
/// checkout.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Non-blank, non-comment lines before the first `#[cfg(test)]` of every
/// `.rs` file under each crate's `src/`, per crate (the root façade is
/// `cosma-repro`).
fn crate_lines(root: &Path) -> Vec<(String, usize)> {
    let mut crates = vec![("cosma-repro".to_string(), root.join("src"))];
    if let Ok(dirs) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = dirs.flatten().map(|d| d.path()).collect();
        dirs.sort();
        for d in dirs {
            let name = d.file_name().map_or(String::new(), |n| n.to_string_lossy().into_owned());
            crates.push((name, d.join("src")));
        }
    }
    crates
        .into_iter()
        .filter(|(_, src)| src.is_dir())
        .map(|(name, src)| (name, count_dir(&src)))
        .collect()
}

fn count_dir(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                count_dir(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |src| non_test_lines(&src))
            } else {
                0
            }
        })
        .sum()
}

fn non_test_lines(src: &str) -> usize {
    src.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_modules_and_comments_are_not_counted() {
        let src = "//! doc\nfn a() {}\n\n// note\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(super::non_test_lines(src), 2);
    }
}
