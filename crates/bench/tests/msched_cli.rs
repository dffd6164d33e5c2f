//! End-to-end `msched` CLI contract: malformed capacity-model flags are
//! *input* errors (pointed `error: …` message, exit status 2), while
//! well-formed invocations schedule and exit 0, and `--list-policies`
//! gains a capability column when an instance file is supplied.

use std::io::Write;
use std::process::{Command, Output};

fn msched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_msched"))
        .args(args)
        .output()
        .expect("msched runs")
}

fn write_instance(dir: &std::path::Path, name: &str, body: &str) -> String {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create instance file");
    f.write_all(body.as_bytes()).expect("write instance file");
    path.to_str().expect("utf-8 path").to_string()
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("msched-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

const THREE_TASKS: &str = "p 3\ntask 2 1 2\ntask 1 2 1\ntask 1 1 3\n";

#[test]
fn malformed_speeds_exit_2_with_pointed_message() {
    let dir = tempdir();
    let file = write_instance(&dir, "three.txt", THREE_TASKS);
    for bad in ["1,abc", "1,,2", "1,-2"] {
        let out = msched(&[&file, "--speeds", bad]);
        assert_eq!(out.status.code(), Some(2), "--speeds {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "--speeds {bad}: {err}");
        assert!(err.contains("--speeds"), "--speeds {bad}: {err}");
    }
}

#[test]
fn malformed_eligibility_exits_2_with_pointed_message() {
    let dir = tempdir();
    let file = write_instance(&dir, "three2.txt", THREE_TASKS);
    let cases: &[(&[&str], &str)] = &[
        // --eligible without --machines.
        (&["--eligible", "0;1;0,1"], "--machines"),
        // --machines without --eligible.
        (&["--machines", "2"], "--eligible"),
        // Machine index out of range.
        (&["--machines", "2", "--eligible", "0;5;0,1"], "machine 5"),
        // Empty per-task list.
        (
            &["--machines", "2", "--eligible", "0;;1"],
            "empty machine list",
        ),
        // Unparsable index.
        (&["--machines", "2", "--eligible", "0;x;1"], "--eligible"),
        // Wrong number of lists for the instance.
        (&["--machines", "2", "--eligible", "0;1"], "3 tasks"),
    ];
    for (flags, needle) in cases {
        let mut args = vec![file.as_str()];
        args.extend_from_slice(flags);
        let out = msched(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "{flags:?}: {err}");
        assert!(err.contains(needle), "{flags:?} missing {needle:?}: {err}");
    }
}

#[test]
fn conflicting_rebase_flags_exit_2() {
    let dir = tempdir();
    let file = write_instance(&dir, "three3.txt", THREE_TASKS);
    let out = msched(&[
        &file,
        "--speeds",
        "2,1",
        "--machines",
        "2",
        "--eligible",
        "0;1;0,1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at most one"), "{err}");
}

#[test]
fn bad_instance_file_exits_2() {
    let dir = tempdir();
    let file = write_instance(&dir, "garbage.txt", "p 1\ntask nonsense\n");
    let out = msched(&[&file]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
}

#[test]
fn restricted_run_schedules_and_exits_0() {
    let dir = tempdir();
    let file = write_instance(&dir, "three4.txt", THREE_TASKS);
    let out = msched(&[
        &file,
        "--machines",
        "3",
        "--eligible",
        "0,1;2;0,1,2",
        "--policy",
        "wdeq-related",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wdeq-related"), "{stdout}");
    assert!(stdout.contains("certified within"), "{stdout}");
}

#[test]
fn unknown_subcommands_exit_2_with_a_pointed_error() {
    for word in ["serv", "frobnicate", "sumbit"] {
        let out = msched(&[word]);
        assert_eq!(out.status.code(), Some(2), "{word}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "{word}: {err}");
        assert!(err.contains("unknown subcommand"), "{word}: {err}");
        assert!(
            err.contains("serve"),
            "{word}: {err} should list the known ones"
        );
    }
}

#[test]
fn unknown_flags_exit_2_in_batch_and_daemon_modes() {
    let dir = tempdir();
    let file = write_instance(&dir, "three6.txt", THREE_TASKS);
    let cases: &[&[&str]] = &[
        &[&file, "--frobnicate"],
        &["serve", "--frobnicate", "x"],
        &["submit", &file, "--frobnicate", "x"],
        &["query", "ping", "--frobnicate", "x"],
        &["shutdown", "--frobnicate", "x"],
    ];
    for args in cases {
        let out = msched(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(
            err.contains("--frobnicate") || err.contains("unknown flag"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn daemon_mode_input_errors_exit_2() {
    let dir = tempdir();
    let file = write_instance(&dir, "three7.txt", THREE_TASKS);
    let cases: &[(&[&str], &str)] = &[
        (&["serve", "--shards", "0"], "--shards"),
        (&["serve", "stray-positional"], "positional"),
        (&["submit"], "instance file"),
        (&["query", "frobnicate"], "unknown query verb"),
        (&["query", "ping", "--tenant", "t"], "--tenant"),
        (&["shutdown", "stray"], "positional"),
    ];
    for (args, needle) in cases {
        let out = msched(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?} missing {needle:?}: {err}");
    }
    // A trailing second positional is still rejected in batch mode.
    let second = write_instance(&dir, "three8.txt", THREE_TASKS);
    let out = msched(&[&file, &second]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("multiple instance files"));
}

#[test]
fn list_policies_shows_capability_column_for_the_instance() {
    let dir = tempdir();
    let file = write_instance(&dir, "three5.txt", THREE_TASKS);
    // Heterogeneous instance: rate-space policies marked "no".
    let out = msched(&[&file, "--speeds", "2,1", "--list-policies"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("capability"), "{stdout}");
    for line in stdout.lines() {
        if line.trim_start().starts_with("wdeq-related") {
            assert!(line.contains("yes"), "{line}");
        }
        if line.trim_start().starts_with("wdeq ") {
            assert!(line.contains("no"), "{line}");
        }
    }
    // Without a file the plain listing still works.
    let plain = msched(&["--list-policies"]);
    assert_eq!(plain.status.code(), Some(0));
    let plain_out = String::from_utf8_lossy(&plain.stdout);
    assert!(
        plain_out.contains("greedy-eligibility-related"),
        "{plain_out}"
    );
}

#[test]
fn release_times_route_batch_mode_to_the_online_engine() {
    // T1 only arrives at t = 1 with V = 1: no policy can finish it
    // before then. Batch mode answers what the daemon answers.
    let dir = tempdir();
    let file = write_instance(
        &dir,
        "arrivals.txt",
        "p 2\ntask 2 1 1\ntask 1 1 2 arrive 1.0\n",
    );
    for policy in ["wdeq", "deq"] {
        let out = msched(&[&file, "--policy", policy]);
        assert_eq!(out.status.code(), Some(0), "{policy}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("[online"), "{policy}: {stdout}");
        assert!(!stdout.contains("certified within"), "{policy}: {stdout}");
        assert!(
            stdout.contains("T0 completes at 2.0\n"),
            "{policy}: {stdout}"
        );
        assert!(
            stdout.contains("T1 completes at 2.0\n"),
            "{policy}: {stdout}"
        );
    }
    // Normalizing through the offline water-filling would run T1 before
    // it arrives, so it is refused.
    let out = msched(&[&file, "--policy", "wdeq", "--normalize", "--gantt"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--normalize ignores release times"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    // A clairvoyant policy cannot run against streaming arrivals.
    let out = msched(&[&file, "--policy", "greedy-smith"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot run against streaming arrivals"),
        "{err}"
    );
}
