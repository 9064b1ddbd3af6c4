//! `actuary` — command line interface to the chiplet-actuary cost model.
//!
//! Subcommands:
//!
//! * `actuary list` — show the technology library;
//! * `actuary yield --node 7nm --area 400` — die yield and cost;
//! * `actuary cost --node 5nm --area 800 --chiplets 2 --integration mcm
//!   --quantity 2000000` — full cost breakdown of one system;
//! * `actuary sweep --node 5nm --chiplets 2 --integration mcm` — RE cost
//!   over the Figure 4 area grid;
//! * `actuary partition --node 5nm --area 800 --quantity 2000000` — the
//!   cheapest integration and chiplet count at one operating point (a
//!   one-point exploration);
//! * `actuary explore --threads 0` — the multi-axis (node × area ×
//!   quantity × integration × chiplet count, plus flow and reuse scheme
//!   under `--flow-axis` / `--schemes`) grid, evaluated in parallel;
//! * `actuary serve --addr 127.0.0.1:8080` — a long-running HTTP process
//!   answering POSTed scenario files with chunk-streamed CSV artifacts;
//! * `actuary mc --node 7nm --area 180 --chiplets 2 --integration 2.5d`
//!   — Monte-Carlo vs analytic;
//! * `actuary repro --figure 2|4|5|6|8|9|10|ext|all [--csv]` — regenerate
//!   the paper's figures (and the extension studies);
//! * `actuary experiments` — the paper-vs-measured Markdown record;
//! * `actuary sensitivity --node 5nm --area 800` — cost elasticities.

#![forbid(unsafe_code)]

mod server;

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::process::ExitCode;

use actuary_arch::{partition::equal_chiplets, Portfolio, System};
use actuary_dse::explore::{IncompatibleReason, SINGLE_SYSTEM_DROPPED};
use actuary_dse::portfolio::{PortfolioSpace, ReuseScheme};
use actuary_mc::{simulate_system, DefectProcess, McConfig};
use actuary_model::{equal_split_re_cost, AssemblyFlow};
use actuary_scenario::toml::{Pos, Value};
use actuary_scenario::{Job, Scenario, ScenarioError, ScenarioRun};
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::{Area, Money, Quantity};

fn main() -> ExitCode {
    // `ACTUARY_LOG=debug` surfaces engine phase spans on any subcommand;
    // `actuary serve` re-initializes from its own flags.
    actuary_obs::log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every line of stdout goes through this one locked, buffered writer.
    let mut out = io::BufWriter::new(io::stdout().lock());
    let (message, with_usage) = match run(&args, &mut out)
        .and_then(|()| out.flush().map_err(Stop::Output))
    {
        Ok(()) => return ExitCode::SUCCESS,
        // The reader closed the pipe (`actuary explore --csv | head -1`):
        // it has every line it wanted.
        Err(Stop::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => return ExitCode::SUCCESS,
        Err(Stop::Output(e)) => (format!("writing stdout failed: {e}"), false),
        Err(Stop::Error(message)) => (message, false),
        Err(Stop::Usage(message)) => (message, true),
    };
    let _ = out.flush();
    // A closed stderr leaves nobody to tell.
    let mut stderr = io::stderr().lock();
    let _ = if with_usage {
        writeln!(stderr, "error: {message}\n\n{}", usage())
    } else {
        writeln!(stderr, "error: {message}")
    };
    ExitCode::FAILURE
}

/// Why a command stopped early.
enum Stop {
    /// A command line off the usage (a missing or unknown command, an
    /// unknown, repeated or value-less flag, a missing required flag),
    /// reported with the usage text.
    Usage(String),
    /// Any other error, reported as one line.
    Error(String),
    /// Writing stdout failed.
    Output(io::Error),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Error(message)
    }
}

impl From<&str> for Stop {
    fn from(message: &str) -> Self {
        Stop::Error(message.to_string())
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Output(e)
    }
}

fn usage() -> &'static str {
    "usage: actuary <command> [options]\n\
     commands:\n\
       list                               show the technology library\n\
       yield --node N --area MM2          die yield and yielded cost\n\
       cost  --node N --area MM2 [--chiplets K] [--integration soc|mcm|info|2.5d]\n\
             [--quantity Q] [--flow chip-first|chip-last]\n\
       sweep --node N [--chiplets K] [--integration KIND]\n\
       partition --node N --area MM2 [--quantity Q]\n\
       explore [--nodes N,N2,..] [--areas MM2,..] [--quantities Q,..]\n\
               [--integrations KIND,..] [--chiplets K,..] [--flow F]\n\
               [--schemes none,scms,ocme,fsmc|all] [--flow-axis]\n\
               [--fsmc-situations KxN,..|paper] [--ocme-centers none,NODE,..]\n\
               [--package-reuse] [--refine] [--threads T]\n\
               [--csv] [--out FILE] [--pareto-out FILE]\n\
                                         multi-axis parallel grid exploration\n\
                                         (T = 0 or omitted: all hardware threads;\n\
                                         --schemes grids the paper's reuse schemes,\n\
                                         --flow-axis grids chip-first vs chip-last,\n\
                                         --fsmc-situations grids Figure 10's (k,n) axis,\n\
                                         --ocme-centers grids mature-node OCME centres,\n\
                                         --refine bisects the area axis, pruning\n\
                                         configurations a monotone cost bound\n\
                                         proves cannot win,\n\
                                         --out streams the grid CSV to FILE,\n\
                                         --pareto-out streams the program-total vs\n\
                                         per-unit Pareto front to FILE)\n\
       run SCENARIO.toml [--threads T] [--out-dir DIR] [--csv]\n\
                                         execute a declarative scenario file\n\
       serve [--addr HOST:PORT] [--threads T] [--workers W]\n\
             [--cache-entries N] [--core-cache N]\n\
             [--rate-limit R] [--max-concurrent C]\n\
             [--log-level error|warn|info|debug|trace] [--log-format text|json]\n\
                                         long-running HTTP process: POST /run with a\n\
                                         scenario file, get its artifacts streamed\n\
                                         back as CSV (or JSON lines under\n\
                                         Accept: application/json); keeps connections\n\
                                         alive, caches results content-addressed\n\
                                         (--cache-entries runs, --core-cache cores;\n\
                                         0 disables), limits each client to R req/s\n\
                                         and C concurrent runs (0 = off), serves\n\
                                         counters on GET /statz and Prometheus text\n\
                                         on GET /metricsz, logs one structured\n\
                                         stderr event per request, drains on SIGTERM\n\
                                         (default addr 127.0.0.1:8080; see\n\
                                         docs/http-api.md, docs/operations.md and\n\
                                         docs/observability.md)\n\
       mc    --node N --area MM2 [--chiplets K] [--integration KIND] [--systems S]\n\
       repro --figure 2|4|5|6|8|9|10|ext|all [--csv]\n\
       experiments                        paper-vs-measured Markdown record\n\
       sensitivity --node N --area MM2 [--chiplets K]  cost elasticities\n\
     flags not listed for a command, and flags given twice, are rejected,\n\
     not ignored"
}

/// The usage error of a missing required flag.
fn missing(key: &str) -> Stop {
    Stop::Usage(format!("missing required flag --{key}"))
}

/// A command's parsed `--key value` flags.
type Flags = BTreeMap<String, String>;

/// Flags that take no value (present = true).
const BOOLEAN_FLAGS: [&str; 4] = ["csv", "flow-axis", "package-reuse", "refine"];

/// Parses `--key value` pairs after the subcommand. A flag given twice is
/// an error, not a silent override by the last value.
fn parse_flags(args: &[String]) -> Result<Flags, Stop> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| Stop::Usage(format!("expected --flag, got {:?}", args[i])))?;
        let (value, step) = if BOOLEAN_FLAGS.contains(&key) {
            ("true".to_string(), 1)
        } else {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => (value.clone(), 2),
                _ => return Err(Stop::Usage(format!("flag --{key} is missing a value"))),
            }
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(Stop::Usage(format!("flag --{key} is given more than once")));
        }
        i += step;
    }
    Ok(flags)
}

/// The value of `--key` parsed as `T`, or `None` when the flag is absent.
/// A value `T` cannot hold, out of range included, is an error naming
/// the flag and the value, never a wrapped number.
fn flag<T>(flags: &Flags, key: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flags
        .get(key)
        .map(|raw| {
            raw.parse()
                .map_err(|e| format!("invalid --{key} {raw:?}: {e}"))
        })
        .transpose()
}

fn run(args: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let Some(command) = args.first() else {
        return Err(Stop::Usage("no command given".to_string()));
    };
    // Honor help/version anywhere on the line (so `actuary repro --help`
    // shows usage instead of a flag-parse error).
    if command == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{}", usage())?;
        return Ok(());
    }
    if args.iter().any(|a| a == "--version" || a == "-V") {
        writeln!(out, "actuary {}", env!("CARGO_PKG_VERSION"))?;
        return Ok(());
    }
    // `run` takes a positional scenario path and builds its own technology
    // library from the file (`extends` overlay), so it dispatches before
    // the table-driven subcommands below.
    if command == "run" {
        return cmd_run(&args[1..], out);
    }
    // `serve` never builds the preset library up front either: every
    // request carries its own scenario (with its own `extends` overlay).
    if command == "serve" {
        return cmd_serve(&args[1..], out);
    }
    // Every subcommand declares the flags it accepts alongside its
    // handler; anything else is rejected instead of silently ignored (a
    // misspelled `--quanttiy` used to fall back to the default quantity
    // and print a wrong answer).
    type Handler = fn(&TechLibrary, &Flags, &mut dyn Write) -> Result<(), Stop>;
    let (accepted, handler): (&[&str], Handler) = match command.as_str() {
        "list" => (&[], |lib, _, out| cmd_list(lib, out)),
        "yield" => (&["node", "area"], cmd_yield),
        "cost" => (
            &[
                "node",
                "area",
                "chiplets",
                "integration",
                "quantity",
                "flow",
            ],
            cmd_cost,
        ),
        "sweep" => (&["node", "chiplets", "integration"], cmd_sweep),
        "partition" => (&["node", "area", "quantity"], cmd_partition),
        "explore" => (
            &[
                "nodes",
                "areas",
                "quantities",
                "integrations",
                "chiplets",
                "flow",
                "flow-axis",
                "schemes",
                "fsmc-situations",
                "ocme-centers",
                "package-reuse",
                "refine",
                "threads",
                "csv",
                "out",
                "pareto-out",
            ],
            cmd_explore,
        ),
        "mc" => (
            &["node", "area", "chiplets", "integration", "systems"],
            cmd_mc,
        ),
        "repro" => (&["figure", "csv"], cmd_repro),
        "experiments" => (&[], |lib, _, out| cmd_experiments(lib, out)),
        "sensitivity" => (&["node", "area", "chiplets"], cmd_sensitivity),
        other => return Err(Stop::Usage(format!("unknown command {other:?}"))),
    };
    let flags = parse_flags(&args[1..])?;
    reject_unknown_flags(command, &flags, accepted)?;
    let lib = TechLibrary::paper_defaults().map_err(|e| e.to_string())?;
    handler(&lib, &flags, out)
}

/// Fails with the command's accepted flag list when any parsed flag is not
/// on it.
fn reject_unknown_flags(command: &str, flags: &Flags, accepted: &[&str]) -> Result<(), Stop> {
    for key in flags.keys() {
        if !accepted.contains(&key.as_str()) {
            let listing = if accepted.is_empty() {
                "none".to_string()
            } else {
                accepted
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            return Err(Stop::Usage(format!(
                "unknown flag --{key} for `{command}` (accepted: {listing})"
            )));
        }
    }
    Ok(())
}

fn cmd_list(lib: &TechLibrary, out: &mut dyn Write) -> Result<(), Stop> {
    writeln!(out, "{lib}")?;
    let mut table = actuary_report::Table::new(vec![
        "node",
        "defect /cm²",
        "cluster",
        "wafer price",
        "density vs 14nm",
        "mask set",
    ]);
    for node in lib.nodes() {
        table.push_row(vec![
            node.id().to_string(),
            format!("{:.2}", node.defect_density().value()),
            format!("{}", node.cluster()),
            node.wafer_price().to_string(),
            format!("{:.2}", node.relative_density()),
            node.nre().mask_set.to_string(),
        ]);
    }
    writeln!(out, "{table}")?;
    for p in lib.packagings() {
        match p.interposer() {
            Some(ip) => writeln!(
                out,
                "{}: bond yield {}, attach {}, interposer {}",
                p.kind(),
                p.chip_bond_yield(),
                p.substrate_attach_yield(),
                ip
            )?,
            None => writeln!(
                out,
                "{}: bond yield {}, substrate {} per mm² (layer factor {})",
                p.kind(),
                p.chip_bond_yield(),
                p.substrate_cost_per_mm2(),
                p.substrate_layer_factor()
            )?,
        }
    }
    Ok(())
}

fn cmd_yield(lib: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let node_id = flags.get("node").ok_or_else(|| missing("node"))?;
    let area_mm2: f64 = flag(flags, "area")?.ok_or_else(|| missing("area"))?;
    let node = lib.node(node_id).map_err(|e| e.to_string())?;
    let area = Area::from_mm2(area_mm2).map_err(|e| e.to_string())?;
    let y = node.die_yield(area);
    let dpw = node
        .wafer()
        .dies_per_wafer(area)
        .map_err(|e| e.to_string())?;
    let raw = node.raw_die_cost(area).map_err(|e| e.to_string())?;
    let yielded = node.yielded_die_cost(area).map_err(|e| e.to_string())?;
    writeln!(out, "node {node} | die {area}")?;
    writeln!(out, "yield (Eq. 1):      {y}")?;
    writeln!(out, "dies per wafer:     {dpw:.1}")?;
    writeln!(out, "raw die cost:       {raw}")?;
    writeln!(out, "cost per good die:  {yielded}")?;
    Ok(())
}

/// Fails, naming `--chiplets`, when one system cannot be `integration` ×
/// `chiplets` (the exploration grid's single-system rule).
fn check_single_system(integration: IntegrationKind, chiplets: u32) -> Result<(), Stop> {
    match IncompatibleReason::single_system(integration, chiplets) {
        Some(reason) => Err(format!("invalid --chiplets \"{chiplets}\": {reason}").into()),
        None => Ok(()),
    }
}

fn build_single_system(
    node: &str,
    area_mm2: f64,
    chiplets: u32,
    integration: IntegrationKind,
    quantity: u64,
) -> Result<System, String> {
    let area = Area::from_mm2(area_mm2).map_err(|e| e.to_string())?;
    let chips = equal_chiplets("cli", node, area, chiplets).map_err(|e| e.to_string())?;
    let mut builder = System::builder("cli-sys", integration).quantity(Quantity::new(quantity));
    for chip in chips {
        builder = builder.chip(chip, 1);
    }
    builder.build().map_err(|e| e.to_string())
}

fn cmd_cost(lib: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let node = flags.get("node").ok_or_else(|| missing("node"))?;
    let area: f64 = flag(flags, "area")?.ok_or_else(|| missing("area"))?;
    let chiplets: u32 = flag(flags, "chiplets")?.unwrap_or(1);
    let integration = match flag(flags, "integration")? {
        Some(kind) => kind,
        None if chiplets > 1 => IntegrationKind::Mcm,
        None => IntegrationKind::Soc,
    };
    let quantity: u64 = flag(flags, "quantity")?.unwrap_or(1_000_000);
    let flow = flag(flags, "flow")?.unwrap_or(AssemblyFlow::ChipLast);
    check_single_system(integration, chiplets)?;
    if quantity == 0 {
        return Err(
            "invalid --quantity \"0\": a quantity must be at least 1 (NRE is amortized \
                    over it)"
                .into(),
        );
    }

    let system = build_single_system(node, area, chiplets, integration, quantity)?;
    let re = system.re_cost(lib, flow, None).map_err(|e| e.to_string())?;
    let cost = Portfolio::new(vec![system])
        .cost(lib, flow)
        .map_err(|e| e.to_string())?;
    let sc = &cost.systems()[0];

    writeln!(
        out,
        "{chiplets} × {:.1} mm² modules at {node} on {integration}, {} units, {flow}",
        area / chiplets as f64,
        Quantity::new(quantity)
    )?;
    writeln!(out, "\nRE cost per unit (Eq. 4/5):")?;
    for (label, money) in re.components() {
        writeln!(out, "  {label:<26} {money}")?;
    }
    writeln!(out, "  {:<26} {}", "TOTAL RE", re.total())?;
    writeln!(out, "\nNRE amortized per unit (Eq. 6-8):")?;
    for (label, money) in sc.nre_per_unit().components() {
        writeln!(out, "  {label:<26} {money}")?;
    }
    writeln!(
        out,
        "  {:<26} {}",
        "TOTAL NRE/unit",
        sc.nre_per_unit().total()
    )?;
    writeln!(
        out,
        "\nper-unit total: {} (RE share {:.0}%)",
        sc.per_unit_total(),
        sc.re_share() * 100.0
    )?;
    Ok(())
}

fn cmd_sweep(_: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let node = flags.get("node").ok_or_else(|| missing("node"))?;
    let chiplets: u32 = flag(flags, "chiplets")?.unwrap_or(2);
    let mut doc = FlagDoc::new(&[
        ("--node", "node"),
        ("--chiplets", "chiplets"),
        ("--integration", "integrations"),
    ]);
    doc.scalar("name", "", "", Value::Str("sweep".to_string()));
    doc.scalar("node", "--node", node, Value::Str(node.clone()));
    let count = chiplets.to_string();
    doc.scalar(
        "chiplets",
        "--chiplets",
        &count,
        Value::Int(i64::from(chiplets)),
    );
    let kind = flags.get("integration").map_or("mcm", String::as_str);
    doc.one("integrations", "--integration", kind, text)?;
    let areas = (100..=900)
        .step_by(100)
        .map(|mm2| (Value::Int(mm2), COMMAND));
    doc.scalar("areas_mm2", "", "", Value::Array(areas.collect()));
    let mut scenario = doc.lower("sweep")?;
    let mut integration = IntegrationKind::Mcm;
    if let Some(Job::Sweep(job)) = scenario.jobs.first_mut() {
        // The table sets the split against a fixed SoC column, so the
        // split itself must be multi-chip.
        integration = job.integrations[0];
        if !integration.is_multi_chip() {
            return Err(format!(
                "--integration must be a multi-chip kind (mcm|info|2.5d), got {integration}: \
                 the table already compares against the SoC"
            )
            .into());
        }
        job.integrations.insert(0, IntegrationKind::Soc);
    }
    let run = run_scenario(&scenario, 0)?;

    let mut table = actuary_report::Table::new(vec![
        "area_mm2",
        "SoC RE",
        &format!("{chiplets}-chiplet {integration} RE"),
        "saving",
    ]);
    let money = |usd: f64| Money::from_usd(usd).map_err(|e| e.to_string());
    for point in run.sweeps[0].sweep.points() {
        let (soc, multi) = (money(point.values[0])?, money(point.values[1])?);
        let saving = 1.0 - multi.usd() / soc.usd();
        table.push_row(vec![
            point.x.to_string(),
            soc.to_string(),
            multi.to_string(),
            format!("{:+.1}%", saving * 100.0),
        ]);
    }
    writeln!(out, "{table}")?;
    Ok(())
}

/// `actuary partition`: the paper's §6 question at one operating point,
/// answered as a one-point exploration over every integration × 1–5
/// chiplets under chip-last.
fn cmd_partition(_: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let node = flags.get("node").ok_or_else(|| missing("node"))?;
    let area = flags.get("area").ok_or_else(|| missing("area"))?;
    let quantity = flags.get("quantity").map_or("1000000", String::as_str);
    let mut doc = FlagDoc::new(&[
        ("--node", "nodes"),
        ("--area", "areas_mm2"),
        ("--quantity", "quantities"),
    ]);
    doc.one("nodes", "--node", node, text)?;
    doc.one("areas_mm2", "--area", area, number)?;
    doc.one("quantities", "--quantity", quantity, integer)?;
    let run = run_scenario(&doc.lower("explore")?, 0)?;
    let result = &run.explores[0].result;
    let winner = &result.winners(ReuseScheme::None)[0];
    let Some((best, _)) = &winner.best else {
        return Err(format!(
            "invalid architecture: no feasible configuration for {} mm² at {}",
            winner.area_mm2, winner.node
        )
        .into());
    };
    writeln!(
        out,
        "build {} chiplet(s) on {} at {} / unit ({:.1}% vs monolithic)\n",
        best.chiplets,
        best.integration,
        best.per_unit,
        winner.saving_vs_soc_frac.unwrap_or(0.0) * 100.0
    )?;
    let mut feasible: Vec<_> = (result.feasible())
        .filter_map(|cell| cell.outcome.candidate().cloned())
        .collect();
    // Stable: equal costs keep grid order, as the winner does.
    feasible.sort_by(|a, b| a.per_unit.usd().total_cmp(&b.per_unit.usd()));
    let mut table =
        actuary_report::Table::new(vec!["integration", "chiplets", "per-unit", "RE only"]);
    for c in &feasible {
        table.push_row(vec![
            c.integration.to_string(),
            c.chiplets.to_string(),
            c.per_unit.to_string(),
            c.re_per_unit.to_string(),
        ]);
    }
    writeln!(out, "{table}")?;
    Ok(())
}

/// The command itself as a place: the document's tables and the values a
/// command fills in without a flag.
const COMMAND: Pos = Pos { line: 0, col: 0 };

/// A scenario document built from a command's flags: the tree a scenario
/// file parses into, never written out as TOML text, and lowered by the
/// same reader. Its positions are places on the command line, line 0
/// (which no file has) and as the column an index into `places`, so a
/// diagnostic names the flag and the value instead of a line and column.
struct FlagDoc {
    table: actuary_scenario::toml::Table,
    /// The flag and the value text of each place; place 0 is the command.
    places: Vec<(String, String)>,
    /// The scenario key each flag of the command sets, to name the flag
    /// where a diagnostic names the key.
    keys: &'static [(&'static str, &'static str)],
}

impl FlagDoc {
    fn new(keys: &'static [(&'static str, &'static str)]) -> Self {
        FlagDoc {
            table: actuary_scenario::toml::Table::new(COMMAND),
            places: vec![(String::new(), String::new())],
            keys,
        }
    }

    fn place(&mut self, flag: &str, text: &str) -> Pos {
        if flag.is_empty() {
            return COMMAND;
        }
        self.places.push((flag.to_string(), text.to_string()));
        Pos {
            line: 0,
            col: (self.places.len() - 1) as u32,
        }
    }

    /// Sets `key` to `value`, placed at `flag` `text`.
    fn scalar(&mut self, key: &str, flag: &str, text: &str, value: Value) {
        let at = self.place(flag, text);
        self.table.push(key, at, value);
    }

    /// Sets `key` to the array of `items`, each read by `read` and placed
    /// at `flag` and its own text.
    fn array<'t>(
        &mut self,
        key: &str,
        flag: &str,
        raw: &str,
        items: impl Iterator<Item = &'t str>,
        read: Read,
    ) -> Result<(), Stop> {
        let at = self.place(flag, raw);
        let mut values = Vec::new();
        for text in items {
            let value = read(text).map_err(|e| format!("invalid {flag} {text:?}: {e}"))?;
            values.push((value, self.place(flag, text)));
        }
        self.table.push(key, at, Value::Array(values));
        Ok(())
    }

    /// Sets `key` to the comma list of `--flag RAW`.
    fn list(&mut self, key: &str, flag: &str, raw: &str, read: Read) -> Result<(), Stop> {
        let items = raw.split(',').map(str::trim).filter(|s| !s.is_empty());
        self.array(key, flag, raw, items, read)
    }

    /// Sets `key` to the one-element array of `--flag RAW`.
    fn one(&mut self, key: &str, flag: &str, raw: &str, read: Read) -> Result<(), Stop> {
        self.array(key, flag, raw, std::iter::once(raw), read)
    }

    /// Lowers the document as the `[job]` table of a scenario.
    fn lower(mut self, job: &str) -> Result<Scenario, Stop> {
        let mut root = actuary_scenario::toml::Table::new(COMMAND);
        root.push("name", COMMAND, Value::Str("cli".to_string()));
        root.push(job, COMMAND, Value::Table(std::mem::take(&mut self.table)));
        Scenario::from_doc(&root).map_err(|e| self.diagnostic(e))
    }

    /// A lowering diagnostic in the command line's terms: `--flag VALUE`
    /// for its place, and each key it names as its flag.
    fn diagnostic(&self, e: ScenarioError) -> Stop {
        let (pos, mut message) = match e {
            ScenarioError::Parse { pos, message } | ScenarioError::Schema { pos, message } => {
                (pos, message)
            }
            ScenarioError::Engine { message, .. } => (COMMAND, message),
        };
        for (flag, key) in self.keys {
            message = message.replace(&format!("`{key}`"), flag);
        }
        match self.places.get(pos.col as usize).filter(|_| pos.line == 0) {
            Some((flag, text)) if !flag.is_empty() && text.is_empty() => {
                format!("invalid {flag}: {message}").into()
            }
            Some((flag, text)) if !flag.is_empty() => {
                format!("invalid {flag} {text:?}: {message}").into()
            }
            _ => message.into(),
        }
    }
}

/// Reads one flag value (or one element of a comma list) as a document
/// value: the flag syntax, no range checks.
type Read = fn(&str) -> Result<Value, String>;

/// A flag value read as a string.
fn text(s: &str) -> Result<Value, String> {
    Ok(Value::Str(s.to_string()))
}

/// A flag value read as a number.
fn number(s: &str) -> Result<Value, String> {
    s.parse().map(Value::Float).map_err(|e| e.to_string())
}

/// A flag value read as an integer.
fn integer(s: &str) -> Result<Value, String> {
    s.parse().map(Value::Int).map_err(|e| e.to_string())
}

/// Runs a scenario lowered from flags; an engine error is its message.
fn run_scenario(scenario: &Scenario, threads: usize) -> Result<ScenarioRun, Stop> {
    scenario
        .run_with(threads, None, &mut ())
        .map_err(|e| match e {
            ScenarioError::Engine { message, .. } => message.into(),
            other => other.to_string().into(),
        })
}

/// Streams `write` into `w` through the library's
/// [`actuary_report::IoSink`] adapter, handing back the io error that
/// stopped it.
fn stream_to<W: Write>(
    w: W,
    write: impl FnOnce(&mut dyn std::fmt::Write) -> std::fmt::Result,
) -> io::Result<W> {
    let mut sink = actuary_report::IoSink::new(w);
    match write(&mut sink) {
        Ok(()) => Ok(sink.into_inner()),
        Err(_) => Err(sink
            .take_error()
            .unwrap_or_else(|| io::Error::other("formatting error"))),
    }
}

/// [`stream_to`] a new file at `path`, naming the path in any error.
fn stream_to_file(
    path: &str,
    write: impl FnOnce(&mut dyn std::fmt::Write) -> std::fmt::Result,
) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    stream_to(io::BufWriter::new(file), write)
        .map_err(|e| format!("writing {path:?} failed: {e}"))?
        .flush()
        .map_err(|e| format!("flushing {path:?} failed: {e}"))
}

/// `actuary serve`: parse the flags and hand off to the HTTP server.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let flags = parse_flags(args)?;
    reject_unknown_flags(
        "serve",
        &flags,
        &[
            "addr",
            "threads",
            "workers",
            "cache-entries",
            "core-cache",
            "rate-limit",
            "max-concurrent",
            "log-level",
            "log-format",
        ],
    )?;
    let defaults = server::ServeOptions::default();
    let options = server::ServeOptions {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        engine_threads: flag(&flags, "threads")?.unwrap_or(0),
        workers: flag(&flags, "workers")?.unwrap_or(4),
        result_cache_entries: flag(&flags, "cache-entries")?
            .unwrap_or(defaults.result_cache_entries),
        core_cache_entries: flag(&flags, "core-cache")?.unwrap_or(defaults.core_cache_entries),
        rate_limit: flag(&flags, "rate-limit")?.unwrap_or(defaults.rate_limit),
        max_concurrent: flag(&flags, "max-concurrent")?.unwrap_or(defaults.max_concurrent),
        log_level: match flags.get("log-level") {
            Some(raw) => actuary_obs::log::Level::parse(raw).ok_or_else(|| {
                format!("invalid --log-level {raw:?} (error|warn|info|debug|trace)")
            })?,
            None => defaults.log_level,
        },
        log_format: match flags.get("log-format") {
            Some(raw) => actuary_obs::log::Format::parse(raw)
                .ok_or_else(|| format!("invalid --log-format {raw:?} (text|json)"))?,
            None => defaults.log_format,
        },
    };
    if options.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    server::serve(&options, out).map_err(Stop::Error)?;
    writeln!(out, "actuary serve: drained in-flight requests, exiting")?;
    Ok(())
}

fn cmd_explore(_: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    if flags.contains_key("flow") && flags.contains_key("flow-axis") {
        return Err("choose --flow FLOW or --flow-axis, not both".into());
    }
    if flags.contains_key("csv") && flags.contains_key("out") {
        return Err("choose --csv (stdout) or --out FILE, not both".into());
    }
    let mut doc = FlagDoc::new(&[
        ("--nodes", "nodes"),
        ("--areas", "areas_mm2"),
        ("--quantities", "quantities"),
        ("--integrations", "integrations"),
        ("--chiplets", "chiplets"),
        ("--flow", "flows"),
        ("--schemes", "schemes"),
        ("--fsmc-situations", "fsmc_situations"),
        ("--ocme-centers", "ocme_center_nodes"),
        ("--package-reuse", "package_reuse"),
    ]);
    let paper: Vec<String> = (PortfolioSpace::FSMC_PAPER_SITUATIONS.iter())
        .map(|(k, n)| format!("{k}x{n}"))
        .collect();
    let lists: [(&str, &str, Read); 9] = [
        ("nodes", "nodes", text),
        ("areas", "areas_mm2", number),
        ("quantities", "quantities", integer),
        ("integrations", "integrations", text),
        ("chiplets", "chiplets", integer),
        ("flow", "flows", text),
        ("schemes", "schemes", text),
        ("fsmc-situations", "fsmc_situations", text),
        ("ocme-centers", "ocme_center_nodes", text),
    ];
    for (name, key, read) in lists {
        let Some(raw) = flags.get(name) else {
            continue;
        };
        let flag = format!("--{name}");
        match name {
            "schemes" if raw.eq_ignore_ascii_case("all") => {
                let all = ReuseScheme::ALL.iter().map(|s| s.label());
                doc.array(key, &flag, raw, all, read)?;
            }
            "fsmc-situations" if raw.eq_ignore_ascii_case("paper") => {
                doc.array(key, &flag, raw, paper.iter().map(String::as_str), read)?;
            }
            _ => doc.list(key, &flag, raw, read)?,
        }
    }
    if flags.contains_key("flow-axis") {
        doc.list("flows", "--flow-axis", "chip-last,chip-first", text)?;
    }
    if flags.contains_key("package-reuse") {
        doc.scalar("package_reuse", "--package-reuse", "", Value::Bool(true));
    }
    if flags.contains_key("refine") {
        doc.scalar("mode", "--refine", "", Value::Str("refine".to_string()));
    }
    let threads: usize = flag(flags, "threads")?.unwrap_or(0);
    let run = run_scenario(&doc.lower("explore")?, threads)?;
    let result = &run.explores[0].result;
    // Without a scheme or flow axis the grid is the single-system one, and
    // its machine-readable outputs keep the single-system columns.
    let dropped: &[&str] = if flags.contains_key("schemes") || flags.contains_key("flow-axis") {
        &[]
    } else {
        &SINGLE_SYSTEM_DROPPED
    };
    if let Some(path) = flags.get("pareto-out") {
        stream_to_file(path, |sink| {
            result
                .pareto_program_artifact()
                .without_columns(dropped)
                .write_csv_to(sink)
        })?;
        // No point count in the message: counting would recompute every
        // scheme's front the artifact write just streamed.
        writeln!(out, "wrote the program-Pareto front to {path}")?;
    }
    if let Some(path) = flags.get("out") {
        stream_to_file(path, |sink| {
            result
                .grid_artifact()
                .without_columns(dropped)
                .write_csv_to(sink)
        })?;
        writeln!(out, "wrote {} grid cells to {path}", result.len())?;
        return Ok(());
    }
    if flags.contains_key("csv") {
        stream_to(out, |sink| {
            result
                .grid_artifact()
                .without_columns(dropped)
                .write_csv_to(sink)
        })?;
        return Ok(());
    }

    writeln!(out, "explored {result}\n")?;
    for &scheme in &result.space().schemes {
        writeln!(
            out,
            "[{scheme}] cheapest configuration per (node, area, quantity):"
        )?;
        let mut winners = actuary_report::Table::new(vec![
            "node",
            "area_mm2",
            "quantity",
            "integration",
            "chiplets",
            "flow",
            "per-unit",
            "vs SoC",
        ]);
        for w in result.winners(scheme) {
            let (integration, chiplets, flow, per_unit) = match &w.best {
                Some((c, flow)) => (
                    c.integration.to_string(),
                    c.chiplets.to_string(),
                    flow.to_string(),
                    c.per_unit.to_string(),
                ),
                None => (
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "infeasible".to_string(),
                ),
            };
            winners.push_row(vec![
                w.node.clone(),
                format!("{}", w.area_mm2),
                Quantity::new(w.quantity).to_string(),
                integration,
                chiplets,
                flow,
                per_unit,
                w.saving_vs_soc_display().unwrap_or_else(|| "-".to_string()),
            ]);
        }
        writeln!(out, "{winners}")?;
        let front = result.pareto_front(scheme);
        writeln!(
            out,
            "[{scheme}] Pareto front over (per-unit cost, chiplet count): {} point(s)",
            front.len()
        )?;
        for cell in front {
            let c = cell.outcome.candidate().expect("Pareto cells are feasible");
            writeln!(
                out,
                "  {} at {} chiplet(s): {} / {:.0} mm2 / {} units, {} ({})",
                c.per_unit,
                cell.chiplets,
                cell.node,
                cell.area_mm2,
                Quantity::new(cell.quantity),
                cell.integration,
                cell.flow,
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "(re-run with --csv or --out FILE for the full machine-readable grid)"
    )?;
    Ok(())
}

/// `actuary run <scenario.toml>`: parse, lower and execute a declarative
/// scenario file through the scenario subsystem.
fn cmd_run(args: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    // Split the positional scenario path from the `--key value` flags.
    let mut path: Option<&str> = None;
    let mut flag_args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            flag_args.push(arg.clone());
            i += 1;
            if !BOOLEAN_FLAGS.contains(&key) {
                if let Some(value) = args.get(i) {
                    flag_args.push(value.clone());
                    i += 1;
                }
            }
        } else if path.is_none() {
            path = Some(arg);
            i += 1;
        } else {
            return Err(Stop::Usage(format!(
                "unexpected extra argument {arg:?} for `run`"
            )));
        }
    }
    let path = path.ok_or_else(|| {
        Stop::Usage("`run` needs a scenario file: actuary run SCENARIO.toml".to_string())
    })?;
    let flags = parse_flags(&flag_args)?;
    reject_unknown_flags("run", &flags, &["threads", "out-dir", "csv"])?;
    if flags.contains_key("csv") && flags.contains_key("out-dir") {
        return Err("choose --csv (stdout) or --out-dir DIR, not both".into());
    }
    let threads: usize = flag(&flags, "threads")?.unwrap_or(0);

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let scenario =
        actuary_scenario::Scenario::from_toml(&text).map_err(|e| format!("{path}: {e}"))?;
    let run = scenario.run(threads).map_err(|e| e.to_string())?;

    if let Some(dir) = flags.get("out-dir") {
        return write_run_outputs(&run, dir, out);
    }
    if flags.contains_key("csv") {
        // One concatenated stream, artifact by artifact — the same bytes
        // `actuary serve` chunk-streams back over HTTP.
        for artifact in run.artifacts() {
            stream_to(&mut *out, |sink| artifact.write_csv_to(sink))?;
        }
        return Ok(());
    }

    writeln!(
        out,
        "scenario `{}`: {} job(s) on {}",
        scenario.name,
        scenario.jobs.len(),
        scenario.library
    )?;
    if let Some(description) = &scenario.description {
        writeln!(out, "{description}")?;
    }
    // `last_job` is an Option so the very first row always opens a group,
    // whatever the job is named.
    let mut last_job: Option<&str> = None;
    let mut table: Option<actuary_report::Table> = None;
    let flush = |out: &mut dyn Write, table: &mut Option<actuary_report::Table>| match table.take()
    {
        Some(t) => writeln!(out, "{t}"),
        None => Ok(()),
    };
    for row in &run.cost_rows {
        if last_job != Some(&row.job) {
            flush(out, &mut table)?;
            writeln!(out, "\n[{}] per-system cost breakdown ($/unit):", row.job)?;
            table = Some(actuary_report::Table::new(vec![
                "system", "quantity", "RE", "RE pkg", "NRE mod", "NRE chip", "NRE pkg", "NRE D2D",
                "total",
            ]));
            last_job = Some(&row.job);
        }
        if let Some(t) = table.as_mut() {
            t.push_row(vec![
                row.system.clone(),
                Quantity::new(row.quantity).to_string(),
                format!("{:.2}", row.re_usd),
                format!("{:.2}", row.re_packaging_usd),
                format!("{:.2}", row.nre_modules_usd),
                format!("{:.2}", row.nre_chips_usd),
                format!("{:.2}", row.nre_packages_usd),
                format!("{:.2}", row.nre_d2d_usd),
                format!("{:.2}", row.per_unit_usd),
            ]);
        }
    }
    flush(out, &mut table)?;
    let mut last_job: Option<&str> = None;
    let mut table: Option<actuary_report::Table> = None;
    for row in &run.yield_rows {
        if last_job != Some(&row.job) {
            flush(out, &mut table)?;
            writeln!(out, "\n[{}] yield and cost per area:", row.job)?;
            table = Some(actuary_report::Table::new(vec![
                "tech",
                "area_mm2",
                "yield",
                "$/raw die",
                "$/good die",
                "norm $/mm2",
            ]));
            last_job = Some(&row.job);
        }
        if let Some(t) = table.as_mut() {
            t.push_row(vec![
                row.tech.clone(),
                format!("{}", row.area_mm2),
                format!("{:.4}", row.yield_frac),
                format!("{:.2}", row.raw_die_usd),
                format!("{:.2}", row.yielded_die_usd),
                format!("{:.3}", row.cost_per_area_norm),
            ]);
        }
    }
    flush(out, &mut table)?;
    for sweep in &run.sweeps {
        writeln!(
            out,
            "\n[{}] per-unit RE cost over the area grid ($):",
            sweep.name
        )?;
        let mut headers = vec![sweep.sweep.x_label().to_string()];
        headers.extend(sweep.sweep.series().iter().cloned());
        let mut table = actuary_report::Table::new(headers);
        for p in sweep.sweep.points() {
            let mut row = vec![format!("{}", p.x)];
            row.extend(p.values.iter().map(|v| format!("{v:.2}")));
            table.push_row(row);
        }
        writeln!(out, "{table}")?;
    }
    for explore in &run.explores {
        writeln!(out, "\n[{}] explored {}", explore.name, explore.result)?;
    }
    if !run.explores.is_empty() || !run.sweeps.is_empty() {
        writeln!(
            out,
            "(re-run with --out-dir DIR or --csv for the machine-readable artifacts)"
        )?;
    }
    Ok(())
}

/// Writes every artifact of a scenario run into `dir` as
/// `<scenario>-<artifact>.csv` — `<scenario>-costs.csv`,
/// `<scenario>-<job>-grid.csv`, `<scenario>-<job>-winners.csv`,
/// `<scenario>-<job>-sweep.csv`, … exactly the artifact stream, one file
/// each.
fn write_run_outputs(
    run: &actuary_scenario::ScenarioRun,
    dir: &str,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    for artifact in run.artifacts() {
        let path = format!(
            "{}/{}-{}.csv",
            dir.trim_end_matches('/'),
            run.name,
            artifact.name()
        );
        let kind = artifact.kind();
        stream_to_file(&path, |sink| artifact.write_csv_to(sink))?;
        writeln!(out, "wrote {kind} artifact to {path}")?;
    }
    Ok(())
}

fn cmd_mc(lib: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let node = flags.get("node").ok_or_else(|| missing("node"))?;
    let area: f64 = flag(flags, "area")?.ok_or_else(|| missing("area"))?;
    let chiplets: u32 = flag(flags, "chiplets")?.unwrap_or(2);
    let integration = flag(flags, "integration")?.unwrap_or(IntegrationKind::Mcm);
    let systems: u32 = flag(flags, "systems")?.unwrap_or(2_000);
    check_single_system(integration, chiplets)?;

    let system = build_single_system(node, area * chiplets as f64, chiplets, integration, 1)?;
    let analytic = system
        .re_cost(lib, AssemblyFlow::ChipLast, None)
        .map_err(|e| e.to_string())?
        .total();
    let cfg = McConfig {
        systems,
        seed: 1,
        defect_process: DefectProcess::Bernoulli,
    };
    let result =
        simulate_system(&system, lib, AssemblyFlow::ChipLast, &cfg).map_err(|e| e.to_string())?;
    writeln!(out, "analytic expected cost: {analytic}")?;
    writeln!(out, "monte-carlo:            {result}")?;
    writeln!(
        out,
        "dies consumed {} | substrates {} | interposers {}",
        result.dies_consumed(),
        result.substrates_consumed(),
        result.interposers_consumed()
    )?;
    writeln!(
        out,
        "agreement within 4 standard errors: {}",
        if result.agrees_with(analytic, 4.0) {
            "yes"
        } else {
            "NO"
        }
    )?;
    Ok(())
}

fn cmd_repro(lib: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let figure = flags.get("figure").ok_or_else(|| missing("figure"))?;
    let csv = flags.contains_key("csv");
    let selected: Vec<&Study> = (STUDIES.iter())
        .filter(|study| figure == "all" || study.key == figure)
        .collect();
    if selected.is_empty() {
        let mut keys: Vec<&str> = STUDIES.iter().map(|study| study.key).collect();
        keys.dedup();
        return Err(format!("unknown figure {figure:?} ({}|all)", keys.join("|")).into());
    }
    let mut all_checks = Vec::new();
    for study in selected {
        let (table, text, checks) = (study.compute)(lib).map_err(|e| e.to_string())?;
        if csv {
            stream_to(&mut *out, |sink| {
                table.artifact(study.key).write_csv_to(sink)
            })?;
        } else {
            writeln!(out, "{text}")?;
        }
        all_checks.extend(checks);
    }
    if !csv {
        writeln!(out, "shape claims vs the paper:")?;
        let mut failed = 0;
        for check in &all_checks {
            writeln!(out, "  {check}")?;
            if !check.pass {
                failed += 1;
            }
        }
        writeln!(
            out,
            "\n{} of {} claims hold",
            all_checks.len() - failed,
            all_checks.len()
        )?;
    }
    Ok(())
}

/// Prints cost elasticities d(ln cost)/d(ln param) for the key model
/// parameters of one system — which inputs the user should source most
/// carefully (§4: "include the latest relevant data").
fn cmd_sensitivity(lib: &TechLibrary, flags: &Flags, out: &mut dyn Write) -> Result<(), Stop> {
    let node_id = flags.get("node").ok_or_else(|| missing("node"))?.clone();
    let area_mm2: f64 = flag(flags, "area")?.ok_or_else(|| missing("area"))?;
    let chiplets: u32 = flag(flags, "chiplets")?.unwrap_or(2);
    if chiplets == 0 {
        return Err("--chiplets must be at least 1, got 0".into());
    }
    let integration = if chiplets > 1 {
        IntegrationKind::Mcm
    } else {
        IntegrationKind::Soc
    };

    let base_node = lib.node(&node_id).map_err(|e| e.to_string())?.clone();
    let re_total = |library: &TechLibrary| -> Result<f64, actuary_arch::ArchError> {
        let node = library.node(&node_id)?;
        let packaging = library.packaging(integration)?;
        let area = Area::from_mm2(area_mm2)?;
        let re = equal_split_re_cost(node, packaging, area, chiplets, AssemblyFlow::ChipLast)?;
        Ok(re.total().usd())
    };

    let rebuild = |defect: f64, wafer_usd: f64| -> Result<TechLibrary, String> {
        lib.with_modified_node(&node_id, |n| {
            let wafer_price = actuary_units::Money::from_usd(wafer_usd)?;
            n.to_builder()
                .defect_density(defect)
                .wafer_price(wafer_price)
                .build()
        })
        .map_err(|e| e.to_string())
    };

    let base_d = base_node.defect_density().value();
    let base_w = base_node.wafer_price().usd();
    let sensitivities = actuary_dse::sensitivity::rank_sensitivities(
        vec![
            ("defect density".to_string(), base_d),
            ("wafer price".to_string(), base_w),
        ],
        0.01,
        |name, value| {
            let library = match name {
                "defect density" => rebuild(value, base_w),
                _ => rebuild(base_d, value),
            }
            .map_err(|reason| actuary_arch::ArchError::InvalidArchitecture { reason })?;
            re_total(&library)
        },
    )
    .map_err(|e| e.to_string())?;

    writeln!(
        out,
        "RE-cost elasticities for {chiplets} × {:.1} mm² at {node_id} on {integration}:",
        area_mm2 / chiplets as f64
    )?;
    let mut table = actuary_report::Table::new(vec!["parameter", "base value", "elasticity"]);
    for s in sensitivities {
        table.push_row(vec![
            s.parameter,
            format!("{:.4}", s.base_value),
            format!("{:+.3}", s.elasticity),
        ]);
    }
    writeln!(out, "{table}")?;
    writeln!(
        out,
        "(an elasticity of e means +1% in the parameter moves cost by about e%)"
    )?;
    Ok(())
}

/// Emits the paper-vs-measured Markdown record behind `EXPERIMENTS.md`:
/// for every study, every qualitative claim of the paper's prose with the
/// value this reproduction measures.
fn cmd_experiments(lib: &TechLibrary, out: &mut dyn Write) -> Result<(), Stop> {
    let mut total = 0usize;
    let mut passed = 0usize;
    for study in &STUDIES {
        let (_, _, checks) = (study.compute)(lib).map_err(|e| e.to_string())?;
        writeln!(out, "## {} — {}\n", study.heading, study.description)?;
        writeln!(out, "| paper claim | paper value | measured | verdict |")?;
        writeln!(out, "|---|---|---|---|")?;
        for c in &checks {
            writeln!(
                out,
                "| {} | {} | {} | {} |",
                c.claim,
                c.expected,
                c.measured,
                if c.pass { "PASS" } else { "FAIL" }
            )?;
            total += 1;
            if c.pass {
                passed += 1;
            }
        }
        writeln!(out)?;
    }
    writeln!(out, "**{passed} / {total} claims hold.**")?;
    Ok(())
}

/// What reproducing one study yields: its table (the `--csv` output), its
/// human-readable rendering and its shape claims.
type StudyOutput = (
    actuary_report::Table,
    String,
    Vec<actuary_figures::ShapeCheck>,
);

/// One study `repro` and `experiments` reproduce: the `--figure` key that
/// selects it, its `experiments` heading and description, and its
/// computation.
struct Study {
    key: &'static str,
    heading: &'static str,
    description: &'static str,
    compute: fn(&TechLibrary) -> actuary_figures::Result<StudyOutput>,
}

/// Every reproduced study, in output order.
const STUDIES: [Study; 10] = [
    Study {
        key: "2",
        heading: "Figure 2",
        description: "Yield / normalized cost-per-area vs die area for six technologies",
        compute: |lib| {
            let fig = actuary_figures::fig2::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "4",
        heading: "Figure 4",
        description: "Normalized RE cost breakdown: SoC/MCM/InFO/2.5D × {2,3,5} chiplets × \
             {14,7,5}nm × 100-900mm²",
        compute: |lib| {
            let fig = actuary_figures::fig4::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "5",
        heading: "Figure 5",
        description: "AMD validation: 7nm CCD + 12nm IOD MCM vs hypothetical monolithic 7nm, \
             16-64 cores",
        compute: |lib| {
            let fig = actuary_figures::fig5::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "6",
        heading: "Figure 6",
        description: "Total cost structure of a single 800mm² system at 14/5nm over \
             500k/2M/10M units",
        compute: |lib| {
            let fig = actuary_figures::fig6::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "8",
        heading: "Figure 8",
        description: "SCMS reuse: one 7nm 200mm² chiplet builds 1X/2X/4X on MCM/2.5D, \
             package reuse on/off",
        compute: |lib| {
            let fig = actuary_figures::fig8::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "9",
        heading: "Figure 9",
        description: "OCME reuse: center + extensions, package reuse, heterogeneous \
             14nm center",
        compute: |lib| {
            let fig = actuary_figures::fig9::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "10",
        heading: "Figure 10",
        description: "FSMC reuse: all collocations of n chiplet types in a k-socket package, \
             five (k,n) situations",
        compute: |lib| {
            let fig = actuary_figures::fig10::compute(lib)?;
            Ok((fig.to_table(), fig.render(), fig.checks()))
        },
    },
    Study {
        key: "ext",
        heading: "Extension: process maturity",
        description: "defect-density learning curve (0.13 → 0.05, τ=12mo) vs the chiplet \
             advantage at 7nm/600mm² — §4.1's 'as yield improves the advantage \
             is smaller'",
        compute: |lib| {
            let study = actuary_figures::ext::maturity_study(lib)?;
            let table = study.to_table();
            let text = format!("Extension: process-maturity study\n{}", table.render());
            Ok((table, text, study.checks()))
        },
    },
    Study {
        key: "ext",
        heading: "Extension: die harvesting",
        description: "partial-good salvage (binning) on an 8-core CCD vs a 64-core \
             monolithic die at early 7nm — the industry practice behind the \
             paper's EPYC reference",
        compute: |lib| {
            let study = actuary_figures::ext::harvest_study(lib)?;
            let table = study.to_table();
            let text = format!("Extension: die-harvest (binning) study\n{}", table.render());
            Ok((table, text, study.checks()))
        },
    },
    Study {
        key: "ext",
        heading: "Extension: yield-model ablation",
        description: "Poisson vs negative-binomial cluster parameter: how the model \
             choice of §2.2 moves the multi-chip turning point",
        compute: |lib| {
            let study = actuary_figures::ext::yield_model_ablation(lib)?;
            let table = study.to_table();
            let text = format!("Extension: yield-model ablation\n{}", table.render());
            Ok((table, text, study.checks()))
        },
    },
];
