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
