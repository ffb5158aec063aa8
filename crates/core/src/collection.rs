use setsim_tokenize::{Dictionary, TokenMultiSet, TokenSet, Tokenizer};
use std::fmt;

/// Identifier of a set in a [`SetCollection`]: a dense index assigned in
/// insertion order (the paper's 8-byte word-occurrence ids play the same
/// role; density lets us use plain vectors as side tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetId(pub u32);

impl SetId {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Builds a [`SetCollection`] by tokenizing strings one at a time.
pub struct CollectionBuilder {
    tokenizer: Box<dyn Tokenizer + Send + Sync>,
    dict: Dictionary,
    texts: Vec<String>,
    multisets: Vec<TokenMultiSet>,
}

impl CollectionBuilder {
    /// A builder using `tokenizer` for every added string.
    pub fn new<T: Tokenizer + Send + Sync + 'static>(tokenizer: T) -> Self {
        Self {
            tokenizer: Box::new(tokenizer),
            dict: Dictionary::new(),
            texts: Vec::new(),
            multisets: Vec::new(),
        }
    }

    /// Tokenize and add one string; returns its id.
    ///
    /// # Panics
    /// Panics if the collection outgrows the `u32` id space.
    #[allow(clippy::panic)] // why: the contract is the `# Panics` section above
    pub fn add(&mut self, text: &str) -> SetId {
        let Ok(raw) = u32::try_from(self.texts.len()) else {
            panic!("collection overflowed the u32 id space")
        };
        let id = SetId(raw);
        let ms = TokenMultiSet::tokenize(text, self.tokenizer.as_ref(), &mut self.dict);
        self.texts.push(text.to_string());
        self.multisets.push(ms);
        id
    }

    /// Add many strings.
    pub fn extend<'a, I: IntoIterator<Item = &'a str>>(&mut self, texts: I) {
        for t in texts {
            self.add(t);
        }
    }

    /// Finish building.
    pub fn build(self) -> SetCollection {
        let sets = self
            .multisets
            .iter()
            .map(setsim_tokenize::TokenMultiSet::to_set)
            .collect();
        SetCollection {
            tokenizer: self.tokenizer,
            dict: self.dict,
            texts: self.texts,
            multisets: self.multisets,
            sets,
        }
    }
}

/// A tokenized database of sets: the paper's base table.
///
/// Stores, per record, the original text, its token multiset (for TF-aware
/// measures) and its token set (for IDF). The tokenizer and dictionary are
/// retained so queries can be tokenized consistently.
pub struct SetCollection {
    tokenizer: Box<dyn Tokenizer + Send + Sync>,
    dict: Dictionary,
    texts: Vec<String>,
    multisets: Vec<TokenMultiSet>,
    sets: Vec<TokenSet>,
}

impl SetCollection {
    /// Reassemble a collection from its serialized parts (the snapshot
    /// load path). `multisets[i]` must be the tokenization of `texts[i]`
    /// under `tokenizer`/`dict`; the derived token sets are recomputed
    /// exactly as [`CollectionBuilder::build`] does.
    pub(crate) fn from_parts(
        tokenizer: Box<dyn Tokenizer + Send + Sync>,
        dict: Dictionary,
        texts: Vec<String>,
        multisets: Vec<TokenMultiSet>,
    ) -> Self {
        let sets = multisets
            .iter()
            .map(setsim_tokenize::TokenMultiSet::to_set)
            .collect();
        Self {
            tokenizer,
            dict,
            texts,
            multisets,
            sets,
        }
    }

    /// Decompose into the parts [`from_parts`](Self::from_parts) takes
    /// (the sharded build path: records are *moved* into per-shard
    /// sub-collections, never copied).
    pub(crate) fn into_parts(
        self,
    ) -> (
        Box<dyn Tokenizer + Send + Sync>,
        Dictionary,
        Vec<String>,
        Vec<TokenMultiSet>,
    ) {
        (self.tokenizer, self.dict, self.texts, self.multisets)
    }

    /// All record texts in id order (snapshot save path).
    pub(crate) fn texts(&self) -> &[String] {
        &self.texts
    }

    /// All record multisets in id order (snapshot save path).
    pub(crate) fn multisets(&self) -> &[TokenMultiSet] {
        &self.multisets
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if the collection has no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The token dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The tokenizer records and queries are tokenized with.
    pub fn tokenizer(&self) -> &(dyn Tokenizer + Send + Sync) {
        self.tokenizer.as_ref()
    }

    /// Original text of a record.
    pub fn text(&self, id: SetId) -> Option<&str> {
        self.texts.get(id.index()).map(std::string::String::as_str)
    }

    /// Token set of a record.
    pub fn set(&self, id: SetId) -> &TokenSet {
        &self.sets[id.index()]
    }

    /// Token multiset of a record.
    pub fn multiset(&self, id: SetId) -> &TokenMultiSet {
        &self.multisets[id.index()]
    }

    /// Iterate over `(id, set)` pairs.
    pub fn iter_sets(&self) -> impl Iterator<Item = (SetId, &TokenSet)> {
        self.sets
            .iter()
            .enumerate()
            .map(|(i, s)| (SetId(i as u32), s))
    }

    /// Tokenize a query string against this collection's dictionary
    /// without growing it (unknown tokens are preserved as a count so
    /// query length normalization can account for them).
    pub fn tokenize_query(&self, text: &str) -> (TokenSet, usize) {
        let mut buf = Vec::new();
        self.tokenizer.tokenize_into(text, &mut buf);
        buf.sort_unstable();
        buf.dedup();
        let mut known = Vec::new();
        let mut unknown = 0usize;
        for t in &buf {
            match self.dict.get(t) {
                Some(tok) => known.push(tok),
                None => unknown += 1,
            }
        }
        (TokenSet::from_tokens(known), unknown)
    }

    /// Approximate heap size of the base table (texts only), for Figure 5.
    pub fn base_table_bytes(&self) -> usize {
        self.texts.iter().map(|t| t.len() + 16).sum()
    }
}

impl fmt::Debug for SetCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetCollection")
            .field("sets", &self.sets.len())
            .field("distinct_tokens", &self.dict.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsim_tokenize::QGramTokenizer;

    fn build(texts: &[&str]) -> SetCollection {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3).with_padding('#'));
        b.extend(texts.iter().copied());
        b.build()
    }

    #[test]
    fn ids_are_dense() {
        let mut b = CollectionBuilder::new(QGramTokenizer::new(3));
        assert_eq!(b.add("abcd"), SetId(0));
        assert_eq!(b.add("bcde"), SetId(1));
        let c = b.build();
        assert_eq!(c.len(), 2);
        assert_eq!(c.text(SetId(0)), Some("abcd"));
        assert_eq!(c.text(SetId(5)), None);
    }

    #[test]
    fn sets_match_multisets() {
        let c = build(&["mainmain", "street"]);
        for (id, set) in c.iter_sets() {
            assert_eq!(&c.multiset(id).to_set(), set);
        }
    }

    #[test]
    fn query_tokenization_counts_unknowns() {
        let c = build(&["abcdef"]);
        let (known, unknown) = c.tokenize_query("abcxyz");
        assert!(unknown > 0, "xyz-grams are unknown");
        assert!(!known.is_empty(), "abc-grams are known");
        // Dictionary must not have grown.
        let before = c.dict().len();
        let _ = c.tokenize_query("zzzzzz");
        assert_eq!(c.dict().len(), before);
    }

    #[test]
    fn empty_collection() {
        let c = build(&[]);
        assert!(c.is_empty());
        assert_eq!(c.iter_sets().count(), 0);
    }

    #[test]
    fn duplicate_texts_get_distinct_ids() {
        let c = build(&["same", "same"]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.set(SetId(0)), c.set(SetId(1)));
    }
}
