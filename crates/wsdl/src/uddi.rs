//! A UDDI-style registry.
//!
//! Universal Description, Discovery and Integration, as the paper's
//! prototype used "to describe the repository" (§4.1). The model keeps
//! UDDI's three-tier structure — business entities own business services,
//! services carry binding templates pointing at access points, and
//! tModels hold the technical fingerprints (here: WSDL documents) —
//! with the v2 `find_*` inquiry semantics ('%' wildcards, category bags).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;

/// A registry key (`uuid:NNNN` style).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub String);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A publisher (in the home: a middleware island's gateway).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessEntity {
    /// Registry key.
    pub key: Key,
    /// Display name.
    pub name: String,
    /// Free-text description.
    pub description: String,
}

/// A categorisation entry in a service's category bag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedReference {
    /// The taxonomy this reference belongs to (e.g. `uddi:middleware`).
    pub taxonomy: String,
    /// The value within the taxonomy (e.g. `jini`, `havi`, `x10`).
    pub value: String,
}

impl KeyedReference {
    /// Creates a reference.
    pub fn new(taxonomy: impl Into<String>, value: impl Into<String>) -> Self {
        KeyedReference {
            taxonomy: taxonomy.into(),
            value: value.into(),
        }
    }
}

/// A concrete way to reach a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingTemplate {
    /// Registry key.
    pub key: Key,
    /// The access point (here: a `vsg://gateway/service` endpoint).
    pub access_point: String,
    /// The tModel describing the interface, if registered.
    pub tmodel_key: Option<Key>,
}

/// A published service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessService {
    /// Registry key.
    pub key: Key,
    /// Owning business.
    pub business_key: Key,
    /// Display name.
    pub name: String,
    /// Categorisation.
    pub categories: Vec<KeyedReference>,
    /// Ways to reach the service.
    pub bindings: Vec<BindingTemplate>,
}

impl BusinessService {
    /// True if the category bag contains `taxonomy == value`.
    pub fn has_category(&self, taxonomy: &str, value: &str) -> bool {
        self.categories
            .iter()
            .any(|c| c.taxonomy == taxonomy && c.value == value)
    }
}

/// A technical model: named interface fingerprint with an overview
/// document (here, the WSDL text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TModel {
    /// Registry key.
    pub key: Key,
    /// Interface name.
    pub name: String,
    /// The overview document (WSDL).
    pub overview_doc: String,
}

/// Inquiry statistics, reported by experiment E8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// `save_*` calls served.
    pub publishes: u64,
    /// `find_*` calls served.
    pub inquiries: u64,
    /// Records scanned across all inquiries.
    pub records_scanned: u64,
}

/// The in-memory registry.
///
/// Inquiries are index-backed: a name index (keyed on the
/// ASCII-lowercased service name, so both exact lookups and
/// `prefix%` wildcard patterns resolve via `BTreeMap` range scans)
/// and a per-taxonomy category index narrow `find_service` to the
/// candidate set instead of scanning every record. The indexes are
/// always maintained; [`UddiRegistry::set_indexing`] only switches
/// the *lookup* path back to a full scan, so benches can ablate
/// indexed vs. scan behaviour on identical registry state.
///
/// Inquiries take `&self` and answer with references into the
/// registry, so a caller pays for copying only what it serialises;
/// their statistics live in a [`Cell`].
#[derive(Debug)]
pub struct UddiRegistry {
    businesses: BTreeMap<Key, BusinessEntity>,
    services: BTreeMap<Key, BusinessService>,
    tmodels: BTreeMap<Key, TModel>,
    /// ASCII-lowercased service name → keys of services with that name.
    name_index: BTreeMap<String, Vec<Key>>,
    /// taxonomy → value → keys of services carrying that category.
    category_index: HashMap<String, HashMap<String, BTreeSet<Key>>>,
    indexing: bool,
    next_id: u64,
    stats: Cell<RegistryStats>,
}

impl Default for UddiRegistry {
    fn default() -> Self {
        UddiRegistry {
            businesses: BTreeMap::new(),
            services: BTreeMap::new(),
            tmodels: BTreeMap::new(),
            name_index: BTreeMap::new(),
            category_index: HashMap::new(),
            indexing: true,
            next_id: 0,
            stats: Cell::new(RegistryStats::default()),
        }
    }
}

/// Which records an inquiry must examine.
enum Candidates<'a> {
    /// No index applies — scan every record.
    All,
    /// Only these keys can possibly match.
    Keys(Vec<&'a Key>),
}

impl UddiRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables index-backed inquiry (for ablation
    /// benchmarks). Indexes stay maintained either way; disabling only
    /// forces `find_service` back to a full scan.
    pub fn set_indexing(&mut self, enabled: bool) {
        self.indexing = enabled;
    }

    fn fresh_key(&mut self, kind: &str) -> Key {
        self.next_id += 1;
        Key(format!("uuid:{kind}:{:06}", self.next_id))
    }

    // ---- publication -----------------------------------------------------

    /// Registers a business entity, returning its key.
    pub fn save_business(&mut self, name: &str, description: &str) -> Key {
        self.stats.get_mut().publishes += 1;
        let key = self.fresh_key("biz");
        self.businesses.insert(
            key.clone(),
            BusinessEntity {
                key: key.clone(),
                name: name.into(),
                description: description.into(),
            },
        );
        key
    }

    /// Registers a tModel, returning its key.
    pub fn save_tmodel(&mut self, name: &str, overview_doc: &str) -> Key {
        self.stats.get_mut().publishes += 1;
        let key = self.fresh_key("tm");
        self.tmodels.insert(
            key.clone(),
            TModel {
                key: key.clone(),
                name: name.into(),
                overview_doc: overview_doc.into(),
            },
        );
        key
    }

    /// Publishes a service under `business_key`, returning its key.
    ///
    /// Returns `None` if the business does not exist.
    pub fn save_service(
        &mut self,
        business_key: &Key,
        name: &str,
        categories: Vec<KeyedReference>,
        access_point: &str,
        tmodel_key: Option<Key>,
    ) -> Option<Key> {
        self.stats.get_mut().publishes += 1;
        if !self.businesses.contains_key(business_key) {
            return None;
        }
        let key = self.fresh_key("svc");
        let binding_key = self.fresh_key("bind");
        let service = BusinessService {
            key: key.clone(),
            business_key: business_key.clone(),
            name: name.into(),
            categories,
            bindings: vec![BindingTemplate {
                key: binding_key,
                access_point: access_point.into(),
                tmodel_key,
            }],
        };
        self.index_service(&service);
        self.services.insert(key.clone(), service);
        Some(key)
    }

    /// Removes a service.
    pub fn delete_service(&mut self, key: &Key) -> bool {
        match self.services.remove(key) {
            Some(service) => {
                self.unindex_service(&service);
                true
            }
            None => false,
        }
    }

    /// Removes every service whose name equals `name` (UDDI names are
    /// case-insensitive), returning the removed records so callers can
    /// clean up orphaned tModels. Index-backed: no scan of unrelated
    /// records.
    pub fn delete_services_by_name(&mut self, name: &str) -> Vec<BusinessService> {
        let keys = self
            .name_index
            .remove(&name.to_ascii_lowercase())
            .unwrap_or_default();
        let mut removed = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(service) = self.services.remove(&key) {
                self.unindex_service(&service);
                removed.push(service);
            }
        }
        removed
    }

    /// Removes a tModel (e.g. once no service binding references it).
    pub fn delete_tmodel(&mut self, key: &Key) -> bool {
        self.tmodels.remove(key).is_some()
    }

    fn index_service(&mut self, service: &BusinessService) {
        self.name_index
            .entry(service.name.to_ascii_lowercase())
            .or_default()
            .push(service.key.clone());
        for cat in &service.categories {
            self.category_index
                .entry(cat.taxonomy.clone())
                .or_default()
                .entry(cat.value.clone())
                .or_default()
                .insert(service.key.clone());
        }
    }

    fn unindex_service(&mut self, service: &BusinessService) {
        let lname = service.name.to_ascii_lowercase();
        if let Some(keys) = self.name_index.get_mut(&lname) {
            keys.retain(|k| k != &service.key);
            if keys.is_empty() {
                self.name_index.remove(&lname);
            }
        }
        for cat in &service.categories {
            if let Some(values) = self.category_index.get_mut(&cat.taxonomy) {
                if let Some(keys) = values.get_mut(&cat.value) {
                    keys.remove(&service.key);
                    if keys.is_empty() {
                        values.remove(&cat.value);
                    }
                }
                if values.is_empty() {
                    self.category_index.remove(&cat.taxonomy);
                }
            }
        }
    }

    // ---- inquiry ----------------------------------------------------------

    /// Counts one inquiry that examined `scanned` records.
    fn note_inquiry(&self, scanned: usize) {
        let mut stats = self.stats.get();
        stats.inquiries += 1;
        stats.records_scanned += scanned as u64;
        self.stats.set(stats);
    }

    /// Finds businesses whose name matches `pattern` (`%` wildcards,
    /// case-insensitive — UDDI v2 semantics).
    pub fn find_business(&self, pattern: &str) -> Vec<&BusinessEntity> {
        self.note_inquiry(self.businesses.len());
        self.businesses
            .values()
            .filter(|b| matches_pattern(pattern, &b.name))
            .collect()
    }

    /// Finds services by name pattern and (optional) required categories.
    ///
    /// All `categories` must be present in a service's bag for it to
    /// match. With indexing enabled, only candidate records selected by
    /// the name/category indexes are examined, and
    /// `RegistryStats::records_scanned` counts exactly those — so E8
    /// reports the true lookup cost either way.
    pub fn find_service(
        &self,
        pattern: &str,
        categories: &[KeyedReference],
    ) -> Vec<&BusinessService> {
        let matches = |s: &BusinessService| {
            matches_pattern(pattern, &s.name)
                && categories
                    .iter()
                    .all(|c| s.has_category(&c.taxonomy, &c.value))
        };
        match self.candidates(pattern, categories) {
            Candidates::All => {
                self.note_inquiry(self.services.len());
                self.services.values().filter(|s| matches(s)).collect()
            }
            Candidates::Keys(keys) => {
                self.note_inquiry(keys.len());
                keys.into_iter()
                    .filter_map(|k| self.services.get(k))
                    .filter(|s| matches(s))
                    .collect()
            }
        }
    }

    /// Picks the cheapest candidate set for an inquiry: exact-name hit,
    /// name-prefix range, or the smallest matching category bucket.
    fn candidates(&self, pattern: &str, categories: &[KeyedReference]) -> Candidates<'_> {
        if !self.indexing {
            return Candidates::All;
        }
        // The run of literal characters before the first wildcard is an
        // index-resolvable prefix (UDDI names compare case-insensitively).
        let literal = pattern.split('%').next().unwrap_or_default();
        let prefix: Cow<'_, str> = if literal.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(literal.to_ascii_lowercase())
        } else {
            Cow::Borrowed(literal)
        };
        if !pattern.contains('%') {
            let keys = self
                .name_index
                .get(prefix.as_ref())
                .map(|ks| ks.iter().collect())
                .unwrap_or_default();
            return Candidates::Keys(keys);
        }
        if !prefix.is_empty() {
            let keys: Vec<&Key> = self
                .name_index
                .range::<str, _>((Bound::Included(prefix.as_ref()), Bound::Unbounded))
                .take_while(|(name, _)| name.starts_with(prefix.as_ref()))
                .flat_map(|(_, ks)| ks.iter())
                .collect();
            return Candidates::Keys(keys);
        }
        // Leading wildcard: the name index cannot help, but if the
        // inquiry constrains categories, the smallest category bucket
        // bounds the candidates (a category absent from the index means
        // no record can match at all).
        let smallest = categories
            .iter()
            .map(|c| {
                self.category_index
                    .get(&c.taxonomy)
                    .and_then(|values| values.get(&c.value))
            })
            .min_by_key(|bucket| bucket.map_or(0, |keys| keys.len()));
        match smallest {
            Some(bucket) => {
                Candidates::Keys(bucket.map(|keys| keys.iter().collect()).unwrap_or_default())
            }
            None => Candidates::All,
        }
    }

    /// Full detail for one service.
    pub fn get_service(&self, key: &Key) -> Option<&BusinessService> {
        self.note_inquiry(1);
        self.services.get(key)
    }

    /// Full detail for one tModel.
    pub fn get_tmodel(&self, key: &Key) -> Option<&TModel> {
        self.note_inquiry(1);
        self.tmodels.get(key)
    }

    /// Finds tModels by name pattern.
    pub fn find_tmodel(&self, pattern: &str) -> Vec<&TModel> {
        self.note_inquiry(self.tmodels.len());
        self.tmodels
            .values()
            .filter(|t| matches_pattern(pattern, &t.name))
            .collect()
    }

    // ---- introspection -----------------------------------------------------

    /// Number of published services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Number of registered businesses.
    pub fn business_count(&self) -> usize {
        self.businesses.len()
    }

    /// Inquiry/publication statistics.
    pub fn stats(&self) -> RegistryStats {
        self.stats.get()
    }
}

/// UDDI v2 name matching: `%` matches any run of characters,
/// comparison is case-insensitive.
pub fn matches_pattern(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match p.split_first() {
            None => n.is_empty(),
            Some((b'%', rest)) => (0..=n.len()).any(|i| rec(rest, &n[i..])),
            Some((c, rest)) => match n.split_first() {
                Some((nc, nrest)) => c.eq_ignore_ascii_case(nc) && rec(rest, nrest),
                None => false,
            },
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (UddiRegistry, Key) {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("havi-gateway", "HAVi island");
        let tm = reg.save_tmodel("VcrPortType", "<definitions name=\"vcr\"/>");
        reg.save_service(
            &biz,
            "living-room-vcr",
            vec![
                KeyedReference::new("uddi:middleware", "havi"),
                KeyedReference::new("uddi:device-class", "vcr"),
            ],
            "vsg://havi-gw/living-room-vcr",
            Some(tm),
        )
        .unwrap();
        reg.save_service(
            &biz,
            "bedroom-camera",
            vec![KeyedReference::new("uddi:middleware", "havi")],
            "vsg://havi-gw/bedroom-camera",
            None,
        )
        .unwrap();
        (reg, biz)
    }

    #[test]
    fn publish_and_find_by_name() {
        let (reg, _) = seeded();
        assert_eq!(reg.service_count(), 2);
        let found = reg.find_service("living%", &[]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "living-room-vcr");
        assert_eq!(
            found[0].bindings[0].access_point,
            "vsg://havi-gw/living-room-vcr"
        );
    }

    #[test]
    fn find_by_category() {
        let (reg, _) = seeded();
        let havi = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "havi")]);
        assert_eq!(havi.len(), 2);
        let vcrs = reg.find_service(
            "%",
            &[
                KeyedReference::new("uddi:middleware", "havi"),
                KeyedReference::new("uddi:device-class", "vcr"),
            ],
        );
        assert_eq!(vcrs.len(), 1);
        let jini = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "jini")]);
        assert!(jini.is_empty());
    }

    #[test]
    fn tmodel_carries_wsdl() {
        let (reg, _) = seeded();
        let svc = &reg.find_service("living%", &[])[0];
        let tm_key = svc.bindings[0].tmodel_key.clone().unwrap();
        let tm = reg.get_tmodel(&tm_key).unwrap();
        assert!(tm.overview_doc.contains("definitions"));
        assert_eq!(reg.find_tmodel("Vcr%").len(), 1);
    }

    #[test]
    fn service_under_unknown_business_rejected() {
        let mut reg = UddiRegistry::new();
        let got = reg.save_service(&Key("uuid:biz:999999".into()), "x", vec![], "vsg://x", None);
        assert!(got.is_none());
    }

    #[test]
    fn delete_service_works() {
        let (mut reg, _) = seeded();
        let key = reg.find_service("living%", &[])[0].key.clone();
        assert!(reg.delete_service(&key));
        assert!(!reg.delete_service(&key));
        assert_eq!(reg.service_count(), 1);
        assert!(reg.get_service(&key).is_none());
    }

    #[test]
    fn stats_track_activity() {
        let (reg, _) = seeded();
        let before = reg.stats();
        assert_eq!(before.publishes, 4); // 1 biz + 1 tmodel + 2 services
        reg.find_service("%", &[]);
        reg.find_business("%");
        let after = reg.stats();
        assert_eq!(after.inquiries, before.inquiries + 2);
        assert!(after.records_scanned > before.records_scanned);
    }

    #[test]
    fn inquiry_statistics_are_pinned() {
        let mut reg = populated(1000);
        let tm = reg.save_tmodel("LampPortType", "<definitions name=\"lamp\"/>");
        let reg = reg;
        let base = reg.stats();
        assert_eq!(
            base.publishes, 1002,
            "1 business + 1000 services + 1 tModel"
        );
        assert_eq!((base.inquiries, base.records_scanned), (0, 0));
        let step = |found: usize, want_found: usize, inquiries: u64, scanned: u64| {
            assert_eq!(found, want_found);
            let now = reg.stats();
            assert_eq!(now.publishes, base.publishes, "inquiries publish nothing");
            assert_eq!((now.inquiries, now.records_scanned), (inquiries, scanned));
        };
        // Exact name: the name index hands over exactly one candidate.
        step(reg.find_service("device-0042", &[]).len(), 1, 1, 1);
        // Prefix wildcard: the name range device-004x holds ten.
        step(reg.find_service("device-004%", &[]).len(), 10, 2, 11);
        // Leading wildcard with a category: the x10 bucket (250).
        let x10 = [KeyedReference::new("uddi:middleware", "x10")];
        step(reg.find_service("%", &x10).len(), 250, 3, 261);
        // A tModel fetch by key counts one inquiry and one record.
        step(usize::from(reg.get_tmodel(&tm).is_some()), 1, 4, 262);
    }

    #[test]
    fn pattern_semantics() {
        assert!(matches_pattern("%", ""));
        assert!(matches_pattern("%", "anything"));
        assert!(matches_pattern("vcr", "VCR"));
        assert!(matches_pattern("living%vcr", "living-room-vcr"));
        assert!(matches_pattern("%vcr%", "the-vcr-service"));
        assert!(!matches_pattern("vcr", "vcr2"));
        assert!(!matches_pattern("a%b", "ac"));
        assert!(matches_pattern("a%%b", "ab"));
    }

    #[test]
    fn keys_are_unique_and_ordered() {
        let mut reg = UddiRegistry::new();
        let a = reg.save_business("a", "");
        let b = reg.save_business("b", "");
        assert_ne!(a, b);
        assert_eq!(reg.business_count(), 2);
    }

    fn populated(n: usize) -> UddiRegistry {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("home", "whole home");
        for i in 0..n {
            let middleware = ["jini", "havi", "x10", "upnp"][i % 4];
            reg.save_service(
                &biz,
                &format!("device-{i:04}"),
                vec![KeyedReference::new("uddi:middleware", middleware)],
                &format!("vsg://gw/device-{i:04}"),
                None,
            )
            .unwrap();
        }
        reg
    }

    #[test]
    fn exact_name_inquiry_is_index_backed() {
        let mut reg = populated(1000);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("device-0777", &[]);
        assert_eq!(found.len(), 1);
        let scanned = reg.stats().records_scanned - before;
        // Acceptance criterion: >=10x fewer records examined than the
        // full 1000-record scan. The index gets it down to exactly 1.
        assert_eq!(scanned, 1, "exact-name inquiry examined {scanned} records");

        reg.set_indexing(false);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("device-0777", &[]);
        assert_eq!(found.len(), 1);
        assert_eq!(reg.stats().records_scanned - before, 1000);
    }

    #[test]
    fn prefix_pattern_scans_only_the_name_range() {
        let reg = populated(1000);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("device-099%", &[]);
        assert_eq!(found.len(), 10); // device-0990 .. device-0999
        assert_eq!(reg.stats().records_scanned - before, 10);
    }

    #[test]
    fn leading_wildcard_uses_the_category_index() {
        let reg = populated(1000);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "x10")]);
        assert_eq!(found.len(), 250);
        assert_eq!(reg.stats().records_scanned - before, 250);

        // A category no record carries is answered from the index alone.
        let before = reg.stats().records_scanned;
        let found = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "corba")]);
        assert!(found.is_empty());
        assert_eq!(reg.stats().records_scanned - before, 0);
    }

    #[test]
    fn indexed_and_scan_lookups_agree() {
        let mut reg = populated(97);
        let patterns = [
            "%",
            "device-0042",
            "device-00%",
            "%42",
            "DEVICE-0007",
            "nothing-like-this",
        ];
        let cats = [
            vec![],
            vec![KeyedReference::new("uddi:middleware", "jini")],
            vec![KeyedReference::new("uddi:middleware", "nope")],
        ];
        for pattern in patterns {
            for cat in &cats {
                let indexed: Vec<BusinessService> = reg
                    .find_service(pattern, cat)
                    .into_iter()
                    .cloned()
                    .collect();
                reg.set_indexing(false);
                let scanned: Vec<BusinessService> = reg
                    .find_service(pattern, cat)
                    .into_iter()
                    .cloned()
                    .collect();
                reg.set_indexing(true);
                assert_eq!(indexed, scanned, "pattern {pattern:?} cats {cat:?}");
            }
        }
    }

    #[test]
    fn delete_by_name_updates_indexes() {
        let (mut reg, biz) = seeded();
        // A second service under the same (case-insensitively equal) name.
        reg.save_service(
            &biz,
            "Living-Room-VCR",
            vec![KeyedReference::new("uddi:middleware", "havi")],
            "vsg://havi-gw/living-room-vcr-2",
            None,
        )
        .unwrap();
        let removed = reg.delete_services_by_name("living-room-vcr");
        assert_eq!(removed.len(), 2);
        assert_eq!(reg.service_count(), 1);
        assert!(reg.find_service("living-room-vcr", &[]).is_empty());
        assert!(reg.delete_services_by_name("living-room-vcr").is_empty());
        // The survivor is still fully indexed.
        let found = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "havi")]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "bedroom-camera");
    }

    #[test]
    fn churn_keeps_indexes_consistent() {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("home", "");
        for round in 0..5 {
            for i in 0..20 {
                reg.save_service(
                    &biz,
                    &format!("svc-{i}"),
                    vec![KeyedReference::new("uddi:gen", format!("g{}", i % 3))],
                    "vsg://gw/x",
                    None,
                )
                .unwrap();
            }
            for i in (0..20).step_by(2) {
                let removed = reg.delete_services_by_name(&format!("svc-{i}"));
                assert_eq!(removed.len(), 1, "round {round} svc-{i}");
            }
        }
        // 5 rounds x (20 added - 10 removed).
        assert_eq!(reg.service_count(), 50);
        assert_eq!(reg.find_service("svc-3", &[]).len(), 5);
        assert_eq!(
            reg.find_service("%", &[KeyedReference::new("uddi:gen", "g1")])
                .len(),
            20
        );
    }
}
