//! Seeded input generation. Every workload's documents are a pure function
//! of `--seed`; the program under test only ever sees the generated TOML.
//!
//! Axis values are drawn by *stratified* sampling: each run covers the same
//! strata with seeded jitter inside them, so the work per run barely depends
//! on the seed while the bytes of every document do.

use std::collections::BTreeSet;

/// SplitMix64: small, fast and good enough to jitter benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` of inputs under `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BDA5));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The nodes every workload rotates through.
const NODES: [&str; 3] = ["14nm", "7nm", "5nm"];

/// One generated scenario document and the grid cells it asks for.
#[derive(Debug, Clone)]
pub struct Doc {
    pub name: String,
    pub text: String,
    pub cells: u64,
}

/// `n` values from `[lo, hi)`, one per equal-width stratum, jittered
/// inside the middle 90% of the stratum and rounded to `step`: strictly
/// increasing whenever a stratum is wider than `step`.
fn stratified(rng: &mut Rng, n: usize, lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    (0..n)
        .map(|i| {
            let x = lo + width * (i as f64 + 0.05 + 0.9 * rng.unit());
            (x / step).round() * step
        })
        .collect()
}

fn list_f64(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", items.join(", "))
}

fn list_u64(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Documents in the `explore_reuse` pool.
const REUSE_DOCS: usize = 24;
const REUSE_AREAS: usize = 3;

/// The `explore_reuse` pool: exhaustive all-scheme documents of 1,800
/// cells each (1 node × 3 areas × 3 quantities × 4 integrations × 5
/// chiplet counts × 2 flows × 5 scheme variants). Each node's 24 areas
/// are one stratified draw over 100–900 mm², dealt out at random among
/// that node's documents.
pub fn reuse_pool(seed: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed, 1);
    let per_node = REUSE_DOCS / NODES.len() * REUSE_AREAS;
    let areas: Vec<Vec<f64>> = NODES
        .iter()
        .map(|_| {
            let mut areas = stratified(&mut rng, per_node, 100.0, 900.0, 0.1);
            rng.shuffle(&mut areas);
            areas
        })
        .collect();
    (0..REUSE_DOCS)
        .map(|j| {
            let name = format!("reuse-s{seed}-{j}");
            let text = format!(
                concat!(
                    "name = \"{name}\"\n",
                    "[explore]\n",
                    "nodes = [\"{node}\"]\n",
                    "areas_mm2 = {areas}\n",
                    "quantities = [500000, 2000000, 10000000]\n",
                    "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
                    "chiplets = [1, 2, 3, 4, 5]\n",
                    "flows = [\"chip-first\", \"chip-last\"]\n",
                    "schemes = [\"none\", \"scms\", \"ocme\", \"fsmc\"]\n",
                    "ocme_center_nodes = [\"none\", \"14nm\"]\n",
                    "fsmc_situations = [\"4x4\"]\n",
                    "outputs = [\"grid\", \"winners\", \"pareto\"]\n",
                ),
                name = name,
                node = NODES[j % NODES.len()],
                areas = {
                    let k = j / NODES.len() * REUSE_AREAS;
                    list_f64(&areas[j % NODES.len()][k..k + REUSE_AREAS])
                },
            );
            Doc {
                name,
                text,
                cells: (REUSE_AREAS * 3 * 4 * 5 * 2 * 5) as u64,
            }
        })
        .collect()
}

/// Documents in the `explore_refine` pool.
const REFINE_DOCS: usize = 12;
const REFINE_AREAS: usize = 48;
const REFINE_QUANTITIES: usize = 20;

/// The `explore_refine` pool: `mode = "refine"` documents of 61,440 cells
/// each (1 node × 48 areas × 20 quantities × 4 integrations × 16 chiplet
/// counts, scheme none). Areas are stratified over 20–1,800 mm²; the 20
/// quantities are log-stratified over a 20× band inside 0.2M–21M whose
/// floor is itself stratified across the pool, so every seed prices the
/// same spread of (node, band) pairs.
pub fn refine_pool(seed: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed, 2);
    (0..REFINE_DOCS)
        .map(|j| {
            let areas = stratified(&mut rng, REFINE_AREAS, 20.0, 1800.0, 0.1);
            // A 20× band whose floor lies in 0.2M–1.05M, so it tops out
            // between 4M and 21M.
            let band = 20f64.ln();
            let slot = (j as f64 + 0.05 + 0.9 * rng.unit()) / REFINE_DOCS as f64;
            let lo = (200_000f64).ln() + slot * ((21e6f64 / 200_000.0).ln() - band);
            let quantities: Vec<u64> = stratified(&mut rng, REFINE_QUANTITIES, lo, lo + band, 1e-9)
                .into_iter()
                .map(|x| x.exp().round() as u64)
                .collect();
            let name = format!("refine-s{seed}-{j}");
            let chiplets: Vec<u64> = (1..=16).collect();
            let text = format!(
                concat!(
                    "name = \"{name}\"\n",
                    "[explore]\n",
                    "mode = \"refine\"\n",
                    "nodes = [\"{node}\"]\n",
                    "areas_mm2 = {areas}\n",
                    "quantities = {quantities}\n",
                    "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
                    "chiplets = {chiplets}\n",
                    "schemes = [\"none\"]\n",
                    "outputs = [\"winners\", \"pareto\", \"pareto_program\"]\n",
                ),
                name = name,
                node = NODES[j % NODES.len()],
                areas = list_f64(&areas),
                quantities = list_u64(&quantities),
                chiplets = list_u64(&chiplets),
            );
            Doc {
                name,
                text,
                cells: (REFINE_AREAS * REFINE_QUANTITIES * 4 * 16) as u64,
            }
        })
        .collect()
}

/// Generated members of the `serve_mix` hot set (the committed examples
/// join them at run time).
const HOT_GENERATED: usize = 6;

/// The generated hot documents: exhaustive grids of 1,440–2,880 cells
/// whose answers run to several hundred KB, so a result-cache hit spends
/// milliseconds rendering.
pub fn hot_docs(seed: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed, 3);
    (0..HOT_GENERATED)
        .map(|j| {
            let n_areas = 6 + 3 * (j % 3);
            let areas = stratified(&mut rng, n_areas, 100.0, 900.0, 0.1);
            let name = format!("hot-s{seed}-{j}");
            let text = format!(
                concat!(
                    "name = \"{name}\"\n",
                    "[explore]\n",
                    "nodes = [\"{node}\"]\n",
                    "areas_mm2 = {areas}\n",
                    "quantities = [500000, 2000000, 10000000]\n",
                    "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
                    "chiplets = [1, 2, 3, 4, 5]\n",
                    "flows = [\"chip-first\", \"chip-last\"]\n",
                    "schemes = [\"none\", \"scms\"]\n",
                ),
                name = name,
                node = NODES[j % NODES.len()],
                areas = list_f64(&areas),
            );
            Doc {
                name,
                text,
                cells: (n_areas * 3 * 4 * 5 * 2 * 2) as u64,
            }
        })
        .collect()
}

/// Areas per cold `serve_mix` document, half shared and half fresh.
const COLD_AREAS: usize = 10;
const COLD_POOL: usize = 40;
const COLD_QUANTITIES: [u64; 4] = [300_000, 1_000_000, 3_000_000, 10_000_000];

/// Fresh single-quantity exhaustive documents for `serve_mix`: 400 cells
/// each (1 node × 10 areas × 1 quantity × 4 integrations × 5 chiplet
/// counts × 2 flows). Half of every document's areas come from a seeded
/// pool shared by all cold documents (core-cache hits once warm); the
/// other half are new to the run, so every document is a result-cache
/// miss.
#[derive(Debug)]
pub struct ColdDocs {
    seed: u64,
    rng: Rng,
    pool: Vec<f64>,
    used: BTreeSet<u64>,
    next_fresh: u64,
    issued: usize,
}

impl ColdDocs {
    pub fn new(seed: u64) -> ColdDocs {
        let mut rng = Rng::new(seed, 4);
        let pool = stratified(&mut rng, COLD_POOL, 100.0, 900.0, 0.5);
        let used = pool.iter().map(|a| (a * 1000.0).round() as u64).collect();
        ColdDocs {
            seed,
            rng,
            pool,
            used,
            next_fresh: 0,
            issued: 0,
        }
    }

    /// A fresh area: a golden-ratio walk over 100–900 mm² at 0.001 mm²
    /// resolution, skipping any value already in use.
    fn fresh_area(&mut self) -> f64 {
        loop {
            self.next_fresh += 1;
            let phase = (self.next_fresh as f64 * 0.618_033_988_749_895
                + (self.seed % 1000) as f64 * 0.000_731)
                .fract();
            let milli = (100_000.0 + phase * 800_000.0).round() as u64;
            if self.used.insert(milli) {
                return milli as f64 / 1000.0;
            }
        }
    }

    pub fn next_doc(&mut self) -> Doc {
        let j = self.issued;
        self.issued += 1;
        let mut areas: Vec<f64> = Vec::with_capacity(COLD_AREAS);
        let mut picks: Vec<usize> = (0..self.pool.len()).collect();
        self.rng.shuffle(&mut picks);
        areas.extend(picks[..COLD_AREAS / 2].iter().map(|&i| self.pool[i]));
        for _ in 0..COLD_AREAS / 2 {
            let area = self.fresh_area();
            areas.push(area);
        }
        areas.sort_by(f64::total_cmp);
        let quantity = COLD_QUANTITIES[self.rng.below(COLD_QUANTITIES.len())];
        let name = format!("cold-s{}-{j}", self.seed);
        let items: Vec<String> = areas.iter().map(|a| format!("{a:.3}")).collect();
        let text = format!(
            concat!(
                "name = \"{name}\"\n",
                "[explore]\n",
                "nodes = [\"{node}\"]\n",
                "areas_mm2 = [{areas}]\n",
                "quantities = [{quantity}]\n",
                "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
                "chiplets = [1, 2, 3, 4, 5]\n",
                "flows = [\"chip-first\", \"chip-last\"]\n",
            ),
            name = name,
            node = NODES[j % NODES.len()],
            areas = items.join(", "),
            quantity = quantity,
        );
        Doc {
            name,
            text,
            cells: (COLD_AREAS * 4 * 5 * 2) as u64,
        }
    }
}
