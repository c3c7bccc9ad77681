#include "softcache/session.h"

#include <string>
#include <utility>

#include "obs/trace.h"
#include "softcache/mc.h"
#include "util/check.h"

namespace sc::softcache {

Session::Session(std::unique_ptr<net::Transport> transport,
                 const RetryConfig& retry, LinkStats* link_stats,
                 SessionStats* stats, MsgType journal_type, uint32_t first_seq,
                 uint32_t client_id)
    : link_(std::move(transport), retry, link_stats),
      retry_(retry),
      stats_(stats),
      journal_type_(journal_type),
      ack_type_(journal_type == MsgType::kTextWrite ? MsgType::kTextWriteAck
                                                    : MsgType::kWritebackAck),
      seq_(first_seq),
      client_id_(client_id & kClientIdMask) {
  SC_CHECK(stats_ != nullptr);
  SC_CHECK(journal_type_ == MsgType::kTextWrite ||
           journal_type_ == MsgType::kDataWriteback);
}

util::Result<ReplyView> Session::CallOnce(Request& request,
                                          uint64_t* cycles) {
  request.seq = seq_++;
  request.epoch = epoch_ & kEpochMask;
  request.client_id = client_id_;
  return link_.Call(request, cycles);
}

void Session::TruncateDurable(uint64_t acked_ops) {
  // An ack of op i (current epoch) proves the MC applied ops 0..i; every
  // flush barrier at or below that is durable. Entries under the barrier
  // can never need replay again.
  const uint64_t durable =
      (acked_ops / kMcWriteFlushIntervalOps) * kMcWriteFlushIntervalOps;
  while (!journal_.empty() && journal_.front().index < durable) {
    journal_.pop_front();
    ++stats_->journal_truncated;
  }
}

util::Result<ReplyView> Session::Call(Request request, uint64_t* cycles) {
  const bool journaled = request.type == journal_type_;
  uint64_t index = 0;
  if (journaled) {
    index = next_index_++;
    journal_.push_back(JournalEntry{index, request.addr, request.payload});
    ++stats_->journaled_ops;
  }
  for (uint32_t attempt = 0; attempt <= retry_.max_recovery_attempts;
       ++attempt) {
    auto reply = CallOnce(request, cycles);
    if (!reply.ok()) return reply;  // link gave up: clean diagnostic
    if (EpochMatches(reply->epoch)) {
      if (journaled) {
        if (reply->type == MsgType::kError) {
          // The MC rejected the op in the current epoch (a protocol-level
          // failure the caller will treat as fatal); it was never applied,
          // so it must not stay in the journal skewing the op indices.
          journal_.pop_back();
          --next_index_;
        } else {
          TruncateDurable(index + 1);
        }
      }
      return reply;
    }
    // The server restarted since we last talked: discard the reply (its
    // content may predate the journal replay) and recover.
    ++stats_->epoch_changes;
    OBS_INSTANT("session", "epoch_change", "seen", reply->epoch,
                "had", epoch_ & kEpochMask);
    auto recovered = Recover(cycles, journaled ? &request : nullptr, index);
    if (!recovered.ok()) return recovered;
    if (journaled) {
      TruncateDurable(index + 1);
      return recovered;
    }
    // Non-journaled (idempotent) op: re-issue it under the new epoch.
  }
  ++stats_->recovery_failures;
  return util::Error{"session: operation abandoned after " +
                     std::to_string(retry_.max_recovery_attempts) +
                     " recoveries"};
}

util::Result<ReplyView> Session::Recover(uint64_t* cycles,
                                         const Request* original,
                                         uint64_t want_index) {
  OBS_SPAN("session", "recover", "journal",
           static_cast<uint64_t>(journal_.size()));
  const uint64_t start_cycles = *cycles;
  if (quiesce_) quiesce_();
  for (uint32_t attempt = 0; attempt < retry_.max_recovery_attempts;
       ++attempt) {
    // Handshake: learn the live epoch and the stable-op watermark.
    Request hello;
    hello.type = MsgType::kHello;
    util::Result<ReplyView> ack = util::Error{""};
    {
      OBS_SPAN("session", "handshake", "attempt", attempt);
      ack = CallOnce(hello, cycles);
    }
    if (!ack.ok()) {
      stats_->recovery_cycles += *cycles - start_cycles;
      ++stats_->recovery_failures;
      return ack;
    }
    if (ack->type != MsgType::kHelloAck) {
      stats_->recovery_cycles += *cycles - start_cycles;
      ++stats_->recovery_failures;
      return util::Error{"session: handshake rejected by server"};
    }
    epoch_ = ack->addr;
    const uint64_t watermark =
        journal_type_ == MsgType::kTextWrite ? ack->aux : ack->extra;
    if (!journal_.empty() && watermark > journal_.back().index + 1) {
      // The server claims more of our ops are durable than we ever sent;
      // the session state is unrecoverable.
      stats_->recovery_cycles += *cycles - start_cycles;
      ++stats_->recovery_failures;
      return util::Error{"session: stable watermark beyond journal"};
    }
    while (!journal_.empty() && journal_.front().index < watermark) {
      journal_.pop_front();
      ++stats_->journal_truncated;
      OBS_INSTANT("session", "journal_truncate", "watermark", watermark);
    }

    // Replay the non-durable suffix, in order, under the new epoch.
    OBS_SPAN("session", "replay", "entries",
             static_cast<uint64_t>(journal_.size()));
    bool clean = true;
    bool have_captured = false;
    for (const JournalEntry& entry : journal_) {
      Request replay;
      replay.type = journal_type_;
      replay.addr = entry.addr;
      replay.length = static_cast<uint32_t>(entry.payload.size());
      replay.payload = entry.payload;
      auto reply = CallOnce(replay, cycles);
      ++stats_->journal_replays;
      if (!reply.ok()) {
        stats_->recovery_cycles += *cycles - start_cycles;
        ++stats_->recovery_failures;
        return reply;
      }
      if (!EpochMatches(reply->epoch)) {
        // Crashed again mid-replay: re-handshake and start over.
        ++stats_->epoch_changes;
        clean = false;
        break;
      }
      if (reply->type != ack_type_) {
        stats_->recovery_cycles += *cycles - start_cycles;
        ++stats_->recovery_failures;
        return util::Error{"session: journal replay rejected by server"};
      }
      if (original != nullptr && entry.index == want_index) {
        captured_ = *reply;
        have_captured = true;
      }
    }
    if (!clean) continue;

    ++stats_->recoveries;
    stats_->recovery_cycles += *cycles - start_cycles;
    if (original != nullptr && !have_captured) {
      // The op that triggered recovery sat below the watermark: it was
      // applied and flushed before the crash, only its ack was lost.
      // Synthesize the ack it would have carried.
      captured_ = ReplyView{};
      captured_.type = ack_type_;
      captured_.seq = original->seq;
      captured_.addr = original->addr;
      captured_.epoch = epoch_ & kEpochMask;
      captured_.client_id = client_id_;
    }
    // Acks carry no payload, and the link's buffer has moved on.
    captured_.payload = nullptr;
    captured_.payload_size = 0;
    return captured_;
  }
  stats_->recovery_cycles += *cycles - start_cycles;
  ++stats_->recovery_failures;
  return util::Error{"session: recovery failed after " +
                     std::to_string(retry_.max_recovery_attempts) +
                     " attempts"};
}

util::Status Session::Synchronize(uint64_t* cycles) {
  if (journal_.empty()) return util::Status::Ok();
  Request hello;
  hello.type = MsgType::kHello;
  auto ack = CallOnce(hello, cycles);
  if (!ack.ok()) return ack.error();
  if (ack->type != MsgType::kHelloAck) {
    return util::Error{"session: sync handshake rejected by server"};
  }
  if (ack->addr == epoch_) return util::Status::Ok();  // no crash since
  ++stats_->epoch_changes;
  auto recovered = Recover(cycles, nullptr, 0);
  if (!recovered.ok()) return recovered.error();
  return util::Status::Ok();
}

}  // namespace sc::softcache
