//! The feature configuration: one `Copy` value naming the optional
//! evaluation layers that are on. An [`Engine`](crate::Engine) holds
//! one and a serving pool hands one to every worker engine. The env
//! spelling `XQSE_DISABLE_<LAYER>=1`, the `xqsh` flag `--no-<layer>`
//! and the API field all set the same field; `join` has only the field
//! (sequential XQueryP mode and the E11 ablation clear it).

/// Which optional evaluation layers are on; the default has all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// The declarative-core optimizer: pushdown, indexed selects,
    /// versioned materialization and join-cache stamps (paper §IV's
    /// reordering).
    pub opt: bool,
    /// The FLWOR hash-join rewrite (join memoization).
    pub join: bool,
    /// Prepared-plan caching and batched, memoized source access;
    /// engages only together with `opt`.
    pub batch: bool,
    /// Zero-copy construction: adopt immutable subtrees by reference.
    pub graft: bool,
}

impl Default for Features {
    fn default() -> Self {
        Features { opt: true, join: true, batch: true, graft: true }
    }
}

impl Features {
    /// Sequential (XQueryP) evaluation: no reordering, so neither the
    /// optimizer nor the join rewrite; the other layers are kept.
    pub fn sequential(self) -> Features {
        Features { opt: false, join: false, ..self }
    }

    /// Is the batch layer engaged? Needs both `opt` and `batch`.
    pub fn batch_layer(self) -> bool {
        self.opt && self.batch
    }

    /// Parse `(key, value)` pairs: `XQSE_DISABLE_OPT`, `_BATCH` and
    /// `_GRAFT` set to `1` each switch one layer off; anything else is
    /// ignored.
    pub fn from_vars<I, K, V>(vars: I) -> Features
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut features = Features::default();
        for (key, value) in vars {
            if value.as_ref() != "1" {
                continue;
            }
            if let Some(layer) = key.as_ref().strip_prefix("XQSE_DISABLE_") {
                features.disable(&layer.to_ascii_lowercase());
            }
        }
        features
    }

    /// [`Features::from_vars`] over this process's environment: the
    /// one place it is read. Non-UTF-8 variables are skipped.
    pub fn from_env() -> Features {
        Features::from_vars(
            std::env::vars_os()
                .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?))),
        )
    }

    /// Apply one `--no-opt`/`--no-batch`/`--no-graft` flag; `false`,
    /// changing nothing, for any other argument.
    pub fn apply_flag(&mut self, flag: &str) -> bool {
        flag.strip_prefix("--no-").is_some_and(|layer| self.disable(layer))
    }

    /// Switch off the layer named `opt`, `batch` or `graft`.
    fn disable(&mut self, layer: &str) -> bool {
        let field = match layer {
            "opt" => &mut self.opt,
            "batch" => &mut self.batch,
            "graft" => &mut self.graft,
            _ => return false,
        };
        *field = false;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_cli_and_api_spellings_agree() {
        let api = [
            Features { opt: false, ..Features::default() },
            Features { batch: false, ..Features::default() },
            Features { graft: false, ..Features::default() },
        ];
        for (layer, api) in ["OPT", "BATCH", "GRAFT"].iter().zip(api) {
            let env = Features::from_vars([(format!("XQSE_DISABLE_{layer}"), "1")]);
            let mut cli = Features::default();
            assert!(cli.apply_flag(&format!("--no-{}", layer.to_ascii_lowercase())));
            assert_eq!(env, api, "env spelling of {layer}");
            assert_eq!(cli, api, "flag spelling of {layer}");
        }
        let all_off = Features::from_vars([
            ("XQSE_DISABLE_OPT", "1"),
            ("XQSE_DISABLE_BATCH", "1"),
            ("XQSE_DISABLE_GRAFT", "1"),
        ]);
        assert_eq!(all_off, Features { join: true, opt: false, batch: false, graft: false });
    }

    #[test]
    fn unknown_spellings_change_nothing() {
        let parsed = Features::from_vars([
            ("XQSE_DISABLE_OPT", "0"),
            ("XQSE_DISABLE_BATCH", "yes"),
            ("XQSE_DISABLE_LOGGING", "1"),
            ("XQSE_DISABLE_JOIN", "1"),
            ("PATH", "/bin"),
        ]);
        assert_eq!(parsed, Features::default());
        let mut f = Features::default();
        for flag in ["--no-budgets", "--no-join", "--opt", "--no-"] {
            assert!(!f.apply_flag(flag), "{flag}");
        }
        assert_eq!(f, Features::default());
    }

    #[test]
    fn sequential_keeps_batch_and_graft() {
        let f = Features { graft: false, ..Features::default() }.sequential();
        assert_eq!(f, Features { opt: false, join: false, batch: true, graft: false });
        assert!(!f.batch_layer());
        assert!(Features::default().batch_layer());
    }
}
