//! Minimal `--key value` argument parsing for the experiment binaries
//! (dependency-free: the workspace builds offline).

use nups_sim::topology::Topology;

use crate::tasks::{Scale, TaskKind};

/// Parsed command-line flags.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    pub fn parse_from(iter: impl IntoIterator<Item = String>) -> Args {
        let mut pairs = Vec::new();
        let mut it = iter.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().unwrap(),
                    _ => "true".to_string(),
                };
                pairs.push((key.to_string(), value));
            }
        }
        Args { pairs }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    pub fn get_u16(&self, key: &str, default: u16) -> u16 {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    pub fn get_flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false")
    }

    /// Experiment topology: `--nodes N --workers W` (defaults mirror the
    /// paper's 8×8 shape at a simulation-friendly 4×2).
    pub fn topology(&self) -> Topology {
        Topology::new(self.get_u16("nodes", 4), self.get_u16("workers", 2))
    }

    pub fn scale(&self) -> Scale {
        self.get("scale").and_then(Scale::parse).unwrap_or(Scale::Small)
    }

    pub fn task(&self) -> Option<TaskKind> {
        self.get("task").and_then(TaskKind::parse)
    }

    pub fn tasks(&self) -> Vec<TaskKind> {
        match self.task() {
            Some(t) => vec![t],
            None => TaskKind::all().to_vec(),
        }
    }

    pub fn epochs(&self, default: usize) -> usize {
        self.get_usize("epochs", default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args("--nodes 8 --workers 4 --verbose --scale tiny");
        assert_eq!(a.get("nodes"), Some("8"));
        assert_eq!(a.topology(), Topology::new(8, 4));
        assert!(a.get_flag("verbose"));
        assert!(!a.get_flag("quiet"));
        assert_eq!(a.scale(), Scale::Tiny);
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.topology(), Topology::new(4, 2));
        assert_eq!(a.scale(), Scale::Small);
        assert_eq!(a.epochs(5), 5);
        assert_eq!(a.tasks().len(), 3);
    }

    #[test]
    fn task_selection() {
        let a = args("--task wv");
        assert_eq!(a.task(), Some(TaskKind::Wv));
        assert_eq!(a.tasks(), vec![TaskKind::Wv]);
        assert_eq!(args("--task bogus").task(), None);
    }

    #[test]
    fn last_occurrence_wins() {
        let a = args("--epochs 3 --epochs 9");
        assert_eq!(a.epochs(1), 9);
    }
}
