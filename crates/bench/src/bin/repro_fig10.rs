//! Reproduces paper Fig. 10: AIC timestamping error vs received SNR.
use softlora::phy_timestamp::OnsetMethod;
use softlora_bench::experiments::fig10;
use softlora_bench::table::Table;

fn main() {
    println!("Fig. 10 — AIC timestamping error vs SNR (20 trials per point)\n");
    let snrs = fig10::paper_snrs();
    let aic = fig10::run(&snrs, 20, OnsetMethod::Aic);
    let power = fig10::run(&snrs, 20, OnsetMethod::PowerAic);
    let mut t = Table::new([
        "SNR(dB)",
        "AIC mean(µs)",
        "AIC max(µs)",
        "PowerAIC mean(µs)",
        "PowerAIC max(µs)",
    ]);
    for (a, p) in aic.iter().zip(power.iter()) {
        t.row([
            format!("{:.0}", a.snr_db),
            format!("{:.1}", a.mean_error_us),
            format!("{:.1}", a.max_error_us),
            format!("{:.1}", p.mean_error_us),
            format!("{:.1}", p.max_error_us),
        ]);
    }
    println!("{t}");
    println!("Paper: average error within ~20 µs for the building SNR range");
    println!("(−1..13 dB) and ~25 µs at −20 dB. Our amplitude-domain pickers match");
    println!("the first regime and degrade faster below about −5 dB.");
}
