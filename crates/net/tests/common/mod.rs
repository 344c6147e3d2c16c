//! Helpers shared by the net integration tests.

/// Names of this process's live threads that start with `prefix` (the
/// kernel keeps the first 15 bytes of a name). Empty where there is no
/// `/proc`.
pub fn threads_named(prefix: &str) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .filter(|name| name.starts_with(prefix))
        .collect()
}
