//! Word pools and deterministic value generators for synthetic page content.
//!
//! The generated pages are filled with plausible-looking data (person names,
//! titles, places, prices, dates …).  All draws are deterministic functions
//! of a seed, so the "same page" rendered twice contains the same values and
//! the data oracle in [`crate::tasks`] can re-identify target nodes by value.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First names used for person generation.
pub const FIRST_NAMES: &[&str] = &[
    "Martin",
    "Sofia",
    "Quentin",
    "Ava",
    "Noah",
    "Olivia",
    "Liam",
    "Emma",
    "Mason",
    "Isabella",
    "Ethan",
    "Mia",
    "Lucas",
    "Amelia",
    "Henry",
    "Charlotte",
    "Leo",
    "Harper",
    "Jack",
    "Grace",
    "Daniel",
    "Chloe",
    "Samuel",
    "Ella",
    "David",
    "Nora",
    "Joseph",
    "Lily",
    "Victor",
    "Ruth",
];

/// Last names used for person generation.
pub const LAST_NAMES: &[&str] = &[
    "Scorsese",
    "Coppola",
    "Tarantino",
    "Bigelow",
    "Anderson",
    "Nolan",
    "Kurosawa",
    "Miller",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Lee",
    "Walker",
    "Hall",
    "Allen",
    "Young",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
];

/// Nouns for titles (movies, products, articles, hotels).
pub const TITLE_NOUNS: &[&str] = &[
    "Empire", "River", "Shadow", "Garden", "Mountain", "Harbor", "Signal", "Voyage", "Archive",
    "Meridian", "Compass", "Lantern", "Orchard", "Summit", "Canyon", "Monarch", "Horizon",
    "Beacon", "Atlas", "Mirage",
];

/// Adjectives for titles.
pub const TITLE_ADJECTIVES: &[&str] = &[
    "Silent",
    "Golden",
    "Hidden",
    "Broken",
    "Electric",
    "Distant",
    "Crimson",
    "Frozen",
    "Restless",
    "Lucky",
    "Midnight",
    "Endless",
    "Roaring",
    "Quiet",
    "Painted",
    "Savage",
    "Velvet",
    "Northern",
    "Wandering",
    "Final",
];

/// City names for locations.
pub const CITIES: &[&str] = &[
    "San Francisco",
    "Edinburgh",
    "Oxford",
    "Lisbon",
    "Kyoto",
    "Toronto",
    "Melbourne",
    "Valparaiso",
    "Reykjavik",
    "Marrakesh",
    "Lucerne",
    "Tallinn",
    "Porto",
    "Savannah",
    "Wellington",
    "Bergen",
    "Ljubljana",
    "Galway",
    "Bruges",
    "Dubrovnik",
];

/// Countries for locations.
pub const COUNTRIES: &[&str] = &[
    "United States",
    "United Kingdom",
    "Portugal",
    "Japan",
    "Canada",
    "Australia",
    "Chile",
    "Iceland",
    "Morocco",
    "Switzerland",
    "Estonia",
    "New Zealand",
    "Norway",
    "Slovenia",
    "Ireland",
    "Belgium",
    "Croatia",
    "France",
    "Italy",
    "Spain",
];

/// Organisation names.
pub const ORGANISATIONS: &[&str] = &[
    "Acme Corp",
    "Globex",
    "Initech",
    "Umbrella Partners",
    "Stark Industries",
    "Wayne Enterprises",
    "Hooli",
    "Vandelay Industries",
    "Wonka Labs",
    "Tyrell Analytics",
    "Cyberdyne Systems",
    "Aperture Research",
    "Oscorp",
    "Soylent Foods",
    "Gringotts Finance",
];

/// Product categories.
pub const PRODUCT_CATEGORIES: &[&str] = &[
    "Wireless Headphones",
    "Espresso Machine",
    "Trail Backpack",
    "Mechanical Keyboard",
    "Road Bike",
    "Field Camera",
    "Desk Lamp",
    "Air Purifier",
    "Hiking Boots",
    "Watch",
    "Notebook",
    "Monitor",
    "Drone",
    "Blender",
    "Tent",
];

/// Month names used when formatting textual dates.
pub const MONTHS: &[&str] = &[
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

/// Headline verbs for news generation.
pub const HEADLINE_VERBS: &[&str] = &[
    "announces",
    "unveils",
    "reports",
    "wins",
    "faces",
    "expands",
    "launches",
    "acquires",
    "reviews",
    "confirms",
    "delays",
    "opens",
];

/// A deterministic content generator seeded per (site, page, epoch).
#[derive(Debug)]
pub struct ValueGen {
    rng: StdRng,
}

impl ValueGen {
    /// Creates a generator from a compound seed.
    pub fn new(seed: u64) -> Self {
        ValueGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.rng.random_range(0..pool.len())]
    }

    /// A person name ("First Last").
    pub fn person(&mut self) -> String {
        format!("{} {}", self.pick(FIRST_NAMES), self.pick(LAST_NAMES))
    }

    /// A person name with a middle initial ("First Q. Last").  Used for the
    /// page's primary person so it can never textually collide with the
    /// plain names used in item lists.
    pub fn person_with_initial(&mut self) -> String {
        let first = self.pick(FIRST_NAMES);
        let initial = (b'A' + self.rng.random_range(0..26) as u8) as char;
        format!("{} {}. {}", first, initial, self.pick(LAST_NAMES))
    }

    /// An abbreviated person name ("F. Last"), used in item lists.
    pub fn person_short(&mut self) -> String {
        let first = self.pick(FIRST_NAMES);
        let initial = first.chars().next().unwrap_or('A');
        format!("{}. {}", initial, self.pick(LAST_NAMES))
    }

    /// A title ("Adjective Noun").
    pub fn title(&mut self) -> String {
        format!("{} {}", self.pick(TITLE_ADJECTIVES), self.pick(TITLE_NOUNS))
    }

    /// A news headline.
    pub fn headline(&mut self) -> String {
        format!(
            "{} {} {} {}",
            self.pick(ORGANISATIONS),
            self.pick(HEADLINE_VERBS),
            self.pick(TITLE_ADJECTIVES).to_lowercase(),
            self.pick(TITLE_NOUNS).to_lowercase()
        )
    }

    /// A city.
    pub fn city(&mut self) -> String {
        self.pick(CITIES).to_string()
    }

    /// A country.
    pub fn country(&mut self) -> String {
        self.pick(COUNTRIES).to_string()
    }

    /// An organisation.
    pub fn organisation(&mut self) -> String {
        self.pick(ORGANISATIONS).to_string()
    }

    /// A product name.
    pub fn product(&mut self) -> String {
        format!(
            "{} {}",
            self.pick(TITLE_ADJECTIVES),
            self.pick(PRODUCT_CATEGORIES)
        )
    }

    /// A price string ("$123.45").
    pub fn price(&mut self) -> String {
        format!(
            "${}.{:02}",
            self.rng.random_range(5..900),
            self.rng.random_range(0..100)
        )
    }

    /// A textual date ("March 14, 2011").
    pub fn textual_date(&mut self) -> String {
        format!(
            "{} {}, {}",
            self.pick(MONTHS),
            self.rng.random_range(1..29),
            self.rng.random_range(2004..2016)
        )
    }

    /// A star rating ("7.9").
    pub fn rating(&mut self) -> String {
        format!(
            "{}.{}",
            self.rng.random_range(4..10),
            self.rng.random_range(0..10)
        )
    }

    /// A short sentence of filler prose.
    pub fn sentence(&mut self) -> String {
        format!(
            "The {} {} near the {} drew attention in {}.",
            self.pick(TITLE_ADJECTIVES).to_lowercase(),
            self.pick(TITLE_NOUNS).to_lowercase(),
            self.pick(CITIES),
            self.rng.random_range(2004..2016)
        )
    }

    /// `n` distinct person names.
    pub fn people(&mut self, n: usize) -> Vec<String> {
        let mut out = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::new();
        while out.len() < n {
            let p = self.person();
            if seen.insert(p.clone()) {
                out.push(p);
            }
        }
        out
    }
}

/// Mixes several seed components into one `u64` (a tiny splitmix-style hash,
/// good enough for decorrelating site/page/epoch streams).
pub fn mix_seed(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        h ^= p
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = ValueGen::new(42);
        let mut b = ValueGen::new(42);
        assert_eq!(a.person(), b.person());
        assert_eq!(a.title(), b.title());
        assert_eq!(a.price(), b.price());
        assert_eq!(a.headline(), b.headline());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ValueGen::new(1);
        let mut b = ValueGen::new(2);
        // Not guaranteed for any single draw, but across several draws the
        // streams must diverge.
        let va: Vec<String> = (0..5).map(|_| a.person()).collect();
        let vb: Vec<String> = (0..5).map(|_| b.person()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn people_are_distinct() {
        let mut g = ValueGen::new(7);
        let people = g.people(20);
        let set: std::collections::HashSet<_> = people.iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn price_and_rating_format() {
        let mut g = ValueGen::new(3);
        let p = g.price();
        assert!(p.starts_with('$') && p.contains('.'));
        let r = g.rating();
        assert!(r.contains('.'));
        assert!(r.len() <= 4);
    }

    #[test]
    fn mix_seed_is_order_sensitive() {
        assert_ne!(mix_seed(&[1, 2]), mix_seed(&[2, 1]));
        assert_eq!(mix_seed(&[1, 2, 3]), mix_seed(&[1, 2, 3]));
        assert_ne!(mix_seed(&[1]), mix_seed(&[1, 0]));
    }
}
