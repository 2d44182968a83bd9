//! `icm-profiler` — profile applications on the simulated consolidated
//! cluster, persist the model fleet, and query it: the workflow a
//! production deployment of the methodology would follow.
//!
//! ```text
//! icm-profiler profile --apps M.milc,H.KM --out fleet.json [--hosts N]
//!                      [--algorithm binary-optimized|binary-brute|random30|random50|full]
//!                      [--seed N] [--ec2] [--trace FILE] [--quiet]
//! icm-profiler show    --store fleet.json
//! icm-profiler predict --store fleet.json --app M.milc --pressures 5,5,0,0,0,0,0,0
//! ```
//!
//! With `--trace FILE` every testbed run, probe and model-build phase is
//! appended to FILE as JSONL for `icm-trace`; `--quiet` silences the
//! stderr progress lines.

use std::process::ExitCode;

use icm_core::model::ModelBuilder;
use icm_core::{ModelStore, ProfilingAlgorithm};
use icm_obs::{Tracer, Value};
use icm_simcluster::ClusterSpec;
use icm_workloads::{Catalog, TestbedBuilder};

fn usage() -> &'static str {
    "usage:\n\
     \x20 icm-profiler profile --apps A,B,... --out FILE [--hosts N] [--algorithm NAME] [--seed N] [--ec2] [--trace FILE] [--quiet]\n\
     \x20 icm-profiler show    --store FILE\n\
     \x20 icm-profiler predict --store FILE --app NAME --pressures P1,P2,...\n\
     \n\
     algorithms: binary-optimized (default), binary-brute, random30, random50, full"
}

struct Args {
    values: std::collections::BTreeMap<String, String>,
    flags: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values = std::collections::BTreeMap::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            if matches!(name, "ec2" | "quiet") {
                flags.push(name.to_owned());
            } else {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                values.insert(name.to_owned(), value.clone());
            }
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
        i += 1;
    }
    Ok(Args { values, flags })
}

fn algorithm_by_name(name: &str) -> Result<ProfilingAlgorithm, String> {
    Ok(match name {
        "binary-optimized" => ProfilingAlgorithm::BinaryOptimized,
        "binary-brute" => ProfilingAlgorithm::BinaryBrute,
        "random30" => ProfilingAlgorithm::random30(),
        "random50" => ProfilingAlgorithm::random50(),
        "full" => ProfilingAlgorithm::Full,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

/// The `--seed` value, 2016 by default.
fn seed(args: &Args) -> Result<u64, String> {
    args.values.get("seed").map_or(Ok(2016), |s| {
        icm_json::parse_exact_u64(s).map_err(|e| format!("invalid --seed {e}"))
    })
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let apps = args
        .values
        .get("apps")
        .ok_or("profile requires --apps")?
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect::<Vec<_>>();
    if apps.is_empty() {
        return Err("--apps must list at least one application".into());
    }
    let out = args.values.get("out").ok_or("profile requires --out")?;
    let seed = seed(args)?;
    let algorithm = algorithm_by_name(
        args.values
            .get("algorithm")
            .map_or("binary-optimized", String::as_str),
    )?;
    let hosts: Option<usize> = match args.values.get("hosts") {
        Some(h) => Some(h.parse().map_err(|_| "invalid --hosts")?),
        None => None,
    };

    let quiet = args.flags.iter().any(|f| f == "quiet");
    let tracer = match args.values.get("trace") {
        Some(path) => Tracer::jsonl_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open trace file {path}: {e}"))?,
        None => Tracer::disabled(),
    };

    let catalog = Catalog::paper();
    let mut builder = TestbedBuilder::new(&catalog);
    builder.seed(seed);
    if args.flags.iter().any(|f| f == "ec2") {
        builder.cluster(ClusterSpec::ec2_32());
    }
    let mut testbed = builder.build();
    testbed.sim_mut().set_tracer(tracer.clone());

    let mut store = ModelStore::new();
    for app in apps {
        if catalog.get(app).is_none() {
            return Err(format!(
                "unknown application `{app}` (catalog: {})",
                catalog.names().join(", ")
            ));
        }
        if !quiet {
            eprintln!("[icm-profiler] profiling {app}...");
        }
        let mut mb = ModelBuilder::new(app);
        mb.algorithm(algorithm).seed(seed).tracer(tracer.clone());
        if let Some(h) = hosts {
            mb.hosts(h);
        }
        let model = mb.build(&mut testbed).map_err(|e| e.to_string())?;
        if !quiet {
            eprintln!(
                "[icm-profiler]   score {:.2}, policy {}, cost {:.1}%",
                model.bubble_score(),
                model.policy(),
                model.profiling_cost() * 100.0
            );
        }
        store.insert(model);
    }
    store.save_to_path(out).map_err(|e| e.to_string())?;
    tracer.event(
        "fleet_saved",
        &[
            ("models", Value::from(store.len() as u64)),
            ("path", Value::from(out.as_str())),
        ],
    );
    tracer.flush();
    if !quiet {
        eprintln!("[icm-profiler] wrote {} models to {out}", store.len());
    }
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let path = args.values.get("store").ok_or("show requires --store")?;
    let store = ModelStore::load_from_path(path).map_err(|e| e.to_string())?;
    println!(
        "{:<10} {:>6} {:>7} {:>12}  {:<12}",
        "app", "hosts", "score", "solo (s)", "policy"
    );
    for app in store.apps() {
        let Some(model) = store.get(app) else {
            return Err(format!("store lists `{app}` but holds no model for it"));
        };
        println!(
            "{:<10} {:>6} {:>7.2} {:>12.1}  {:<12}",
            app,
            model.hosts(),
            model.bubble_score(),
            model.solo_seconds(),
            model.policy().name(),
        );
    }
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let path = args.values.get("store").ok_or("predict requires --store")?;
    let app = args.values.get("app").ok_or("predict requires --app")?;
    let pressures: Vec<f64> = args
        .values
        .get("pressures")
        .ok_or("predict requires --pressures")?
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid pressure `{p}`"))
        })
        .collect::<Result<_, _>>()?;
    let store = ModelStore::load_from_path(path).map_err(|e| e.to_string())?;
    let model = store
        .get(app)
        .ok_or_else(|| format!("no model for `{app}` in {path}"))?;
    let normalized = model.try_predict(&pressures).map_err(|e| e.to_string())?;
    let hom = model.convert(&pressures);
    println!("application        : {app}");
    println!("pressures          : {pressures:?}");
    println!(
        "policy conversion  : {} → pressure {:.2} on {:.1} node(s)",
        model.policy(),
        hom.pressure,
        hom.nodes
    );
    println!("normalized runtime : {normalized:.3}×");
    println!(
        "absolute runtime   : {:.1} s (solo {:.1} s)",
        normalized * model.solo_seconds(),
        model.solo_seconds()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let parsed = match parse_args(rest) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "profile" => cmd_profile(&parsed),
        "show" => cmd_show(&parsed),
        "predict" => cmd_predict(&parsed),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let parsed = parse_args(&args(&[
            "--apps",
            "M.milc,H.KM",
            "--out",
            "f.json",
            "--ec2",
            "--seed",
            "7",
        ]))
        .expect("parses");
        assert_eq!(parsed.values["apps"], "M.milc,H.KM");
        assert_eq!(parsed.values["out"], "f.json");
        assert_eq!(parsed.values["seed"], "7");
        assert!(parsed.flags.iter().any(|f| f == "ec2"));
    }

    #[test]
    fn seeds_above_two_to_the_53_are_refused() {
        let exact = parse_args(&args(&["--seed", "9007199254740992"])).expect("parses");
        assert_eq!(seed(&exact), Ok(1 << 53));
        let rounded = parse_args(&args(&["--seed", "9007199254740993"])).expect("parses");
        let err = seed(&rounded).expect_err("refused");
        assert!(err.contains("9007199254740992 (2^53)"), "{err}");
        assert_eq!(seed(&parse_args(&[]).expect("parses")), Ok(2016));
    }

    #[test]
    fn rejects_positional_arguments_and_missing_values() {
        assert!(parse_args(&args(&["oops"])).is_err());
        assert!(parse_args(&args(&["--apps"])).is_err());
    }

    #[test]
    fn algorithm_names_resolve() {
        assert!(algorithm_by_name("binary-optimized").is_ok());
        assert!(algorithm_by_name("binary-brute").is_ok());
        assert!(algorithm_by_name("random30").is_ok());
        assert!(algorithm_by_name("random50").is_ok());
        assert!(algorithm_by_name("full").is_ok());
        assert!(algorithm_by_name("magic").is_err());
    }

    #[test]
    fn profile_requires_apps_and_out() {
        let no_apps = parse_args(&args(&["--out", "f.json"])).expect("parses");
        assert!(cmd_profile(&no_apps).is_err());
        let no_out = parse_args(&args(&["--apps", "M.milc"])).expect("parses");
        assert!(cmd_profile(&no_out).is_err());
        let unknown =
            parse_args(&args(&["--apps", "ghost", "--out", "/tmp/x.json"])).expect("parses");
        let err = cmd_profile(&unknown).expect_err("unknown app");
        assert!(err.contains("ghost"));
    }

    #[test]
    fn predict_requires_store_app_and_pressures() {
        let missing = parse_args(&args(&["--app", "M.milc"])).expect("parses");
        assert!(cmd_predict(&missing).is_err());
        let bad_pressures = parse_args(&args(&[
            "--store",
            "/nonexistent.json",
            "--app",
            "M.milc",
            "--pressures",
            "1,x",
        ]))
        .expect("parses");
        assert!(cmd_predict(&bad_pressures).is_err());
    }

    #[test]
    fn show_requires_existing_store() {
        let parsed = parse_args(&args(&["--store", "/definitely/not/here.json"])).expect("parses");
        assert!(cmd_show(&parsed).is_err());
    }
}
