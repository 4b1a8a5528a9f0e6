//! Configuration of the induction algorithm.

use wi_scoring::ScoringParams;

/// Policy for using textual contents (`normalize-space(.)` comparisons) in
/// induced predicates.
///
/// The paper's robustness experiments "restrict the induction to expressions
/// which do not refer to textual data contents, i.e., texts that are not part
/// of the template" — template labels such as `Director:` are fine, article
/// titles are not.  The policy below captures the three useful settings.
#[derive(Debug, Clone, PartialEq)]
pub enum TextPolicy {
    /// Never generate text predicates.
    Deny,
    /// Generate text predicates from any text on the page.
    Allow,
    /// Generate text predicates only from strings contained in one of the
    /// whitelisted template strings (case-sensitive substring match).
    TemplateOnly(Vec<String>),
}

impl TextPolicy {
    /// Returns `true` if a predicate with the given string constant may be
    /// generated under this policy.
    pub fn allows(&self, constant: &str) -> bool {
        match self {
            TextPolicy::Deny => false,
            TextPolicy::Allow => true,
            TextPolicy::TemplateOnly(whitelist) => {
                whitelist.iter().any(|template| template.contains(constant))
            }
        }
    }
}

/// Configuration of [`crate::induce()`] / [`crate::WrapperInducer`].
#[derive(Debug, Clone)]
pub struct InductionConfig {
    /// Best-K bound: how many candidate instances are kept per spine node and
    /// returned overall.
    pub k: usize,
    /// Scoring parameters (defaults to the paper's Section 6.3 values).
    pub params: ScoringParams,
    /// Policy for text-content predicates.
    pub text_policy: TextPolicy,
    /// Maximum length of a string constant taken from text content.
    pub max_text_len: usize,
    /// Maximum number of distinct single words from a text value that are
    /// turned into `contains(., w)` candidates.
    pub max_text_words: usize,
    /// Maximum number of single words from a multi-word attribute value that
    /// are turned into `contains(@a, w)` candidates.
    pub max_attr_words: usize,
    /// How many element siblings on each side of a spine node are considered
    /// as sources of sideways checks (Algorithm 1, child-axis case).
    pub max_sideways_siblings: usize,
    /// Whether sideways checks are generated at all.  Disabling them is an
    /// ablation: the paper argues the sibling axes are essential for
    /// multi-target wrappers (Section 6.3).
    pub enable_sideways: bool,
    /// Attributes that are never used in predicates (volatile, auto-generated
    /// values such as inline styles or session ids).
    pub ignored_attributes: Vec<String>,
    /// Upper bound on the positional index generated by accuracy refinement;
    /// larger indices are considered too fragile to be worth a candidate.
    pub max_position: u32,
}

impl Default for InductionConfig {
    fn default() -> Self {
        InductionConfig {
            k: 10,
            params: ScoringParams::paper_defaults(),
            text_policy: TextPolicy::Allow,
            max_text_len: 60,
            max_text_words: 3,
            max_attr_words: 3,
            max_sideways_siblings: 3,
            enable_sideways: true,
            ignored_attributes: vec!["style".to_string(), "onclick".to_string()],
            max_position: 50,
        }
    }
}

impl InductionConfig {
    /// Returns a config with a different best-K bound.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Returns a config with different scoring parameters.
    pub fn with_params(mut self, params: ScoringParams) -> Self {
        self.params = params;
        self
    }

    /// Returns a config with the given text policy.
    pub fn with_text_policy(mut self, policy: TextPolicy) -> Self {
        self.text_policy = policy;
        self
    }

    /// Returns a config with sideways checks enabled or disabled (ablation).
    pub fn with_sideways(mut self, enabled: bool) -> Self {
        self.enable_sideways = enabled;
        self
    }

    /// Returns `true` if the given attribute may appear in predicates.
    pub fn attribute_allowed(&self, name: &str) -> bool {
        !self.ignored_attributes.iter().any(|a| a == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_setup() {
        let c = InductionConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.params.decay, 2.5);
        assert!(c.enable_sideways);
        assert!(c.attribute_allowed("class"));
        assert!(!c.attribute_allowed("style"));
    }

    #[test]
    fn text_policy_allows() {
        assert!(!TextPolicy::Deny.allows("Director:"));
        assert!(TextPolicy::Allow.allows("anything"));
        let tpl = TextPolicy::TemplateOnly(vec!["Director: Martin".into(), "Channels".into()]);
        assert!(tpl.allows("Director:"));
        assert!(tpl.allows("Channels"));
        assert!(!tpl.allows("Scorsese"));
    }

    #[test]
    fn builder_methods() {
        let c = InductionConfig::default()
            .with_k(0)
            .with_sideways(false)
            .with_text_policy(TextPolicy::Deny);
        assert_eq!(c.k, 1); // clamped to at least 1
        assert!(!c.enable_sideways);
        assert_eq!(c.text_policy, TextPolicy::Deny);
    }
}
