use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match roundbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roundbench: {e}");
            return ExitCode::from(2);
        }
    };
    match roundbench::run(&args) {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("roundbench: correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::FAILURE
        }
    }
}
