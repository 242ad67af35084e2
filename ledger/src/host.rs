//! The host block recorded with every result, and the check that flags
//! a comparison with a result taken on a different host.

use skyup_obs::json::Json;

/// What the numbers depend on besides the code: core count, CPU model,
/// build profile and the target features the binary was compiled for.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub available_parallelism: u64,
    pub cpu_model: String,
    pub profile: &'static str,
    pub target_features: Vec<&'static str>,
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let candidates: [(&str, bool); 8] = [
            ("sse2", cfg!(target_feature = "sse2")),
            ("sse4.2", cfg!(target_feature = "sse4.2")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("fma", cfg!(target_feature = "fma")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("neon", cfg!(target_feature = "neon")),
            ("sve", cfg!(target_feature = "sve")),
        ];
        Host {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            cpu_model,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            target_features: candidates
                .iter()
                .filter(|(_, on)| *on)
                .map(|(name, _)| *name)
                .collect(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "available_parallelism",
                Json::Uint(self.available_parallelism),
            ),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("profile", Json::Str(self.profile.into())),
            (
                "target_features",
                Json::Arr(
                    self.target_features
                        .iter()
                        .map(|f| Json::Str((*f).into()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The fields of `earlier` (a host block read back from a saved
    /// result) that differ from this host.
    pub fn differences(&self, earlier: &Json) -> Vec<String> {
        let now = self.to_json();
        [
            "available_parallelism",
            "cpu_model",
            "profile",
            "target_features",
        ]
        .iter()
        .filter(|key| now.get(key).map(Json::render) != earlier.get(key).map(Json::render))
        .map(|key| {
            format!(
                "{key}: {} then, {} now",
                earlier.get(key).map_or("missing".into(), Json::render),
                now.get(key).map_or("missing".into(), Json::render)
            )
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_matches_itself_and_flags_a_core_count_change() {
        let host = Host::detect();
        assert!(host.differences(&host.to_json()).is_empty());
        let mut other = host.clone();
        other.available_parallelism += 1;
        let diff = host.differences(&other.to_json());
        assert_eq!(diff.len(), 1);
        assert!(diff[0].starts_with("available_parallelism"));
    }
}
