//! Integration tests for the `xqsh` CLI binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn xqsh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xqsh"))
}

fn run_stdin(args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = xqsh()
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xqsh");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn runs_hello_world_from_stdin() {
    let (stdout, _stderr, ok) = run_stdin(&[], "{ return value \"Hello, World\"; }");
    assert!(ok);
    assert_eq!(stdout.trim(), "Hello, World");
}

#[test]
fn trace_goes_to_stderr() {
    let (stdout, stderr, ok) = run_stdin(
        &["--trace"],
        "{ declare $x := 3; while ($x lt 20) { fn:trace($x); set $x := $x * 2; } \
           return value $x; }",
    );
    assert!(ok);
    assert_eq!(stdout.trim(), "24");
    assert!(stderr.contains("trace: 3"));
    assert!(stderr.contains("trace: 12"));
}

#[test]
fn xqueryp_mode_concatenates_loop_values() {
    let src = "{ declare $x := 0; while ($x lt 3) { set $x := $x + 1; fn:string($x); } }";
    let (xqse_out, _, ok) = run_stdin(&[], src);
    assert!(ok);
    assert_eq!(xqse_out.trim(), "");
    let (xp_out, _, ok) = run_stdin(&["--xqueryp"], src);
    assert!(ok);
    assert_eq!(xp_out.trim(), "1 2 3");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let (_, stderr, ok) = run_stdin(&[], "{ return value 1 div 0; }");
    assert!(!ok);
    assert!(stderr.contains("FOAR0001"), "{stderr}");
    // Parse errors too.
    let (_, stderr, ok) = run_stdin(&[], "{ set x := 1; }");
    assert!(!ok);
    assert!(stderr.contains("XPST0003") || stderr.contains("parse"), "{stderr}");
}

#[test]
fn doc_registration_resolves_fn_doc() {
    let dir = std::env::temp_dir().join("xqsh_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let xml_path = dir.join("data.xml");
    std::fs::write(&xml_path, "<r><v>4</v><v>5</v></r>").unwrap();
    let (stdout, stderr, ok) = run_stdin(
        &["--doc", &format!("mem:data={}", xml_path.display())],
        "fn:sum(for $v in fn:doc('mem:data')/r/v return fn:number($v))",
    );
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "9");
}

#[test]
fn runs_the_shipped_example_scripts() {
    let root = env!("CARGO_MANIFEST_DIR"); // repo root (the package that owns the bin)
    let scripts = std::path::Path::new(root).join("examples/scripts");
    let run_file = |name: &str| {
        let out = xqsh()
            .arg(scripts.join(name))
            .output()
            .expect("run script");
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    assert_eq!(run_file("hello.xqse"), "Hello, World");
    assert_eq!(run_file("doubling.xqse"), "3 6 12 24 48 96");
    assert_eq!(run_file("collatz.xqse"), "111"); // n=27 takes 111 steps
}

#[test]
fn usage_on_bad_args() {
    let out = xqsh().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

fn run_stdin_env(args: &[&str], envs: &[(&str, &str)], input: &str) -> (String, String, bool) {
    let mut cmd = xqsh();
    cmd.args(args).arg("-");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xqsh");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

/// Every explain line prints on every run — zero-valued counters and
/// disabled features included — so bench scripts can parse the block
/// without guessing which features were engaged (satellite: uniform
/// explain output).
#[test]
fn explain_block_prints_all_lines_unconditionally() {
    let groups = [
        "explain: optimize =",
        "explain: batch    =",
        "explain: graft    =",
        "explain: join cache",
        "explain: mat cache",
        "explain: pushdown",
        "explain: plan cache",
        "explain: web service",
        "explain: xa recovery",
        "explain: budgets",
        "explain: xdm",
        "explain: streaming",
    ];
    // A trivial query engages almost nothing; every line must still be
    // there, with a feature switched off too.
    for args in [&["--explain"][..], &["--explain", "--no-graft"][..]] {
        let (_, stderr, ok) = run_stdin_env(args, &[], "1 + 1");
        assert!(ok, "{stderr}");
        for g in groups {
            assert!(stderr.contains(g), "missing {g:?} in:\n{stderr}");
        }
    }
}

/// Run xqsh with `args` (no script) and the feature env vars cleared,
/// so the flags alone decide the configuration.
fn run_args(args: &[&str]) -> (String, String, bool) {
    let mut cmd = xqsh();
    cmd.args(args);
    for k in ["XQSE_DISABLE_OPT", "XQSE_DISABLE_BATCH", "XQSE_DISABLE_GRAFT"] {
        cmd.env_remove(k);
    }
    let out = cmd.output().expect("run xqsh");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

/// The `--no-*` flags reach the serving pool's worker engines, and the
/// explain block reports the configuration the workers ran under.
#[test]
fn serve_bench_feature_flags_reach_the_workers() {
    let serve = ["--serve-bench", "2", "--requests", "8", "--delay-us", "0", "--explain"];
    let (_, on, ok) = run_args(&serve);
    assert!(ok, "{on}");
    assert!(on.contains("explain: optimize = true"), "{on}");
    assert!(!on.contains("explain: pushdown       rewrites=0 "), "{on}");

    let (_, no_opt, ok) = run_args(&[&serve[..], &["--no-opt"]].concat());
    assert!(ok, "{no_opt}");
    assert!(no_opt.contains("explain: optimize = false"), "{no_opt}");
    assert!(no_opt.contains("explain: pushdown       rewrites=0 "), "{no_opt}");

    let (_, no_batch, ok) = run_args(&[&serve[..], &["--no-batch"]].concat());
    assert!(ok, "{no_batch}");
    assert!(no_batch.contains("explain: optimize = true"), "{no_batch}");
    assert!(no_batch.contains("explain: batch    = false"), "{no_batch}");
    assert!(no_batch.contains("explain: plan cache     hits=0 misses=0"), "{no_batch}");
}

const DEEP_RECURSION: &str =
    "declare function local:f($n) { if ($n eq 0) then 0 else 1 + local:f($n - 1) };";

/// Runaway recursion is a typed error, not a stack overflow that
/// aborts the process; a script can catch it.
#[test]
fn deep_recursion_raises_xqse0007() {
    let (_, stderr, ok) = run_stdin(&[], &format!("{DEEP_RECURSION} local:f(5000)"));
    assert!(!ok);
    assert!(stderr.contains("XQSE0007"), "{stderr}");

    let (stdout, stderr, ok) = run_stdin(
        &[],
        &format!(
            "{DEEP_RECURSION} {{ try {{ return value local:f(100000); }} \
             catch (*:XQSE0007) {{ return value 'caught'; }} }}"
        ),
    );
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "caught");

    // Within the limit recursion still works.
    let (stdout, stderr, ok) = run_stdin(&[], &format!("{DEEP_RECURSION} local:f(900)"));
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "900");
}

/// Query text nested far past `xqparser::MAX_NESTING_DEPTH` is a
/// static error, not a stack overflow.
#[test]
fn deeply_nested_query_text_raises_xpst0003() {
    let n = 200_000;
    let (_, stderr, ok) = run_stdin(&[], &format!("{}1{}", "(".repeat(n), ")".repeat(n)));
    assert!(!ok);
    assert!(stderr.contains("XPST0003"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

/// A `--doc` nested far past `xmlparse::MAX_ELEMENT_DEPTH` is refused
/// as not well-formed, not a stack overflow.
#[test]
fn deeply_nested_document_is_refused_as_not_well_formed() {
    let n = 200_000;
    let path = std::env::temp_dir().join(format!("xqsh-deep-{}.xml", std::process::id()));
    std::fs::write(&path, format!("{}{}", "<a>".repeat(n), "</a>".repeat(n))).expect("write doc");
    let doc = format!("urn:deep={}", path.display());
    let (_, stderr, ok) = run_stdin(&["--doc", &doc], "fn:count(fn:doc('urn:deep')//a)");
    let _ = std::fs::remove_file(&path);
    assert!(!ok);
    assert!(stderr.contains("FORG0001"), "{stderr}");
    assert!(stderr.contains("nested deeper than"), "{stderr}");
}
