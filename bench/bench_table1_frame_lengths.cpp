// T1 — Table 1: "Frame lengths from market data feeds".
//
// Regenerates the paper's table by sampling complete Ethernet frames from
// the three per-exchange feed profiles (real TsnPitch encoding + UDP/IP
// framing; lengths are measured on the produced bytes). Also reports the
// header-share figures §3 quotes against the same sample.
#include <cstdio>
#include <string>

#include "feed/framelen.hpp"
#include "net/headers.hpp"
#include "proto/pitch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

namespace {

struct Row {
  const char* name;
  tsn::feed::FeedProfile profile;
  int paper[4];  // min avg median max
};

}  // namespace

int main() {
  using namespace tsn;
  constexpr int kFrames = 200'000;
  const Row rows[] = {
      {"Exchange A", feed::exchange_a_profile(), {73, 92, 89, 1514}},
      {"Exchange B", feed::exchange_b_profile(), {64, 113, 76, 1067}},
      {"Exchange C", feed::exchange_c_profile(), {81, 151, 101, 1442}},
  };

  bench::Report bench_report{"table1_frame_lengths",
                             "Table 1: frame lengths from market data feeds"};
  bench_report.param("frames_per_feed", static_cast<std::int64_t>(kFrames));

  std::printf("T1: Table 1 — frame lengths from market data feeds (%d frames per feed)\n\n",
              kFrames);
  std::printf("%-12s %8s %8s %8s %8s    %s\n", "Feed", "min", "avg", "median", "max",
              "(paper: min/avg/median/max)");
  proto::pitch::DecodedBatch batch;
  for (const Row& row : rows) {
    feed::FrameLengthSampler sampler{row.profile, 0x71feedULL};
    telemetry::Histogram lengths;
    std::uint64_t header_bytes = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t messages = 0;
    for (int i = 0; i < kFrames; ++i) {
      const auto frame = sampler.next_frame();
      lengths.add(static_cast<double>(frame.size()));
      total_bytes += frame.size();
      header_bytes += net::kEthernetHeaderSize + net::kIpv4HeaderSize + net::kUdpHeaderSize +
                      net::kEthernetFcsSize + proto::pitch::kUnitHeaderSize;
      const auto decoded = net::decode_frame(frame);
      if (decoded) {
        (void)proto::pitch::decode_batch(decoded->payload, batch);
        messages += batch.count;
      }
    }
    std::printf("%-12s %8.0f %8.1f %8.0f %8.0f    (%d / %d / %d / %d)\n", row.name,
                lengths.min(), lengths.mean(), lengths.median(), lengths.max(), row.paper[0],
                row.paper[1], row.paper[2], row.paper[3]);
    const double header_share =
        100.0 * static_cast<double>(header_bytes) / static_cast<double>(total_bytes);
    std::printf("%12s headers+fcs+unit: %.1f%% of bytes; %.2f messages/frame\n", "",
                header_share, static_cast<double>(messages) / kFrames);

    const std::string prefix = row.profile.name;
    bench_report.stats(prefix + ".frame_len", lengths, "bytes");
    bench_report.metric(prefix + ".header_share", header_share, "%");
    bench_report.metric(prefix + ".messages_per_frame",
                        static_cast<double>(messages) / kFrames, "count");
    // Table 1's shape: the sampler is calibrated to the paper's rows.
    auto near = [](double measured, int paper, double tolerance) {
      return measured > (1.0 - tolerance) * paper && measured < (1.0 + tolerance) * paper;
    };
    bench_report.check(prefix + ".min_near_paper", near(lengths.min(), row.paper[0], 0.15));
    bench_report.check(prefix + ".mean_near_paper", near(lengths.mean(), row.paper[1], 0.15));
    bench_report.check(prefix + ".median_near_paper",
                       near(lengths.median(), row.paper[2], 0.15));
    bench_report.check(prefix + ".max_near_paper", near(lengths.max(), row.paper[3], 0.15));
    // §3: headers are a large fraction of the bytes sent (sanity window —
    // the small-frame profiles sit above the paper's 25-40% band because
    // our fixed 54 B of framing dominates short frames).
    bench_report.check(prefix + ".header_share_sane",
                       header_share >= 15.0 && header_share <= 70.0);
  }
  std::printf(
      "\nPaper claim (§3): 40 bytes of network headers plus 8-16 bytes of protocol\n"
      "headers are 25%%-40%% of the data sent. Our stack: 42 B eth/ip/udp + 4 B FCS\n"
      "+ 8 B sequenced-unit header per datagram.\n");
  return bench_report.finish();
}
