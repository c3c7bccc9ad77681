// Session: the epoch-fenced client endpoint that survives MC restarts.
//
// A Session wraps a ReliableLink and adds crash recovery on top of frame
// recovery. The reliability layer below it makes individual frames
// survivable (loss, corruption, duplication); this layer makes the *server*
// survivable. Every reply the MC sends is stamped with its boot epoch
// (protocol.h); when a Call observes a reply from a different epoch than the
// one it last adopted, the server has crashed and restarted, losing its
// volatile state — unflushed writes and the replay cache. The Session then:
//
//   1. quiesces the owner (the CC drops staged prefetch chunks, which may
//      describe pre-crash server decisions), discarding the mismatched reply
//      (its content may predate the replay);
//   2. re-handshakes with kHello; the kHelloAck carries the new epoch plus
//      the server's *stable* op watermark for this client's write type;
//   3. truncates the journal to the suffix above the watermark (those ops
//      were flushed into the stable image and survived the crash) and
//      replays the remainder, in order, with fresh seqs under the new epoch;
//   4. re-issues or answers the original operation and resumes.
//
// The journal holds every non-idempotent op (kTextWrite for the CC,
// kDataWriteback for the D-cache) since the last durable barrier. The MC
// flushes pending writes to its stable image every kMcWriteFlushIntervalOps
// applied ops of a type (mc.h); the client mirrors that constant, so an ack
// of op `i` proves ops below floor((i+1)/interval)*interval are durable and
// their journal entries can be dropped. The MC rejects stale-epoch writes,
// which keeps its applied-op count exactly equal to this client's op index
// stream — the watermark can therefore be used as an exact journal offset.
//
// Recovery is bounded (RetryConfig::max_recovery_attempts, covering crash
// schedules that fire again mid-recovery); exhaustion degrades to a clean
// util::Error so the owner can Fail the run instead of hanging or aborting.
// A crash-free run takes none of these paths and its wire traffic is
// byte-identical to the pre-session protocol.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "softcache/protocol.h"
#include "softcache/reliable.h"
#include "softcache/stats.h"
#include "util/result.h"

namespace sc::softcache {

class Session {
 public:
  // `journal_type` is the one write-type this client sends (selects which
  // kHelloAck watermark applies); `first_seq` seeds the sequence counter
  // (each client owns a disjoint seq range); `client_id` is stamped into
  // every outgoing frame so a shared MC routes it to this client's session
  // (id 0 — the default — serializes byte-identically to the seed
  // protocol). `link_stats`/`stats` must outlive the session.
  Session(std::unique_ptr<net::Transport> transport, const RetryConfig& retry,
          LinkStats* link_stats, SessionStats* stats, MsgType journal_type,
          uint32_t first_seq, uint32_t client_id = 0);

  // Invoked once per recovery, before the handshake: the owner drops any
  // state derived from pre-crash server decisions (staged prefetch chunks).
  void set_quiesce_hook(std::function<void()> hook) {
    quiesce_ = std::move(hook);
  }

  // One logical RPC. Assigns seq + epoch, journals write-type requests, and
  // transparently recovers from epoch mismatches. The returned Reply is from
  // the current epoch; it may be kError (protocol-level failure is the
  // caller's business). Errors are clean diagnostics: link give-up or
  // recovery exhaustion. The reply's payload is valid until the next call
  // on this session.
  util::Result<ReplyView> Call(Request request, uint64_t* cycles);

  // End-of-run barrier: if the journal is non-empty, confirm the server
  // still holds the current epoch (re-handshaking and replaying if not), so
  // ops acked before a crash nobody RPC'd after are not silently lost.
  util::Status Synchronize(uint64_t* cycles);

  net::Transport& transport() { return link_.transport(); }
  uint32_t epoch() const { return epoch_; }
  uint32_t client_id() const { return client_id_; }
  size_t journal_size() const { return journal_.size(); }

 private:
  struct JournalEntry {
    uint64_t index = 0;  // absolute op ordinal (0-based, never reused)
    uint32_t addr = 0;
    std::vector<uint8_t> payload;
  };

  bool EpochMatches(uint32_t reply_epoch) const {
    return reply_epoch == (epoch_ & kEpochMask);
  }
  // One attempt: assigns a fresh seq + the current epoch and runs the
  // reliable link (which retransmits frames but never re-stamps them).
  util::Result<ReplyView> CallOnce(Request& request, uint64_t* cycles);
  // Drops journal entries proven durable by an ack of op `acked_ops - 1`.
  void TruncateDurable(uint64_t acked_ops);
  // Handshake + journal replay. When `original` is non-null it is the
  // journaled op (index `want_index`) whose Call triggered recovery; its
  // replay ack is returned (synthesized when the watermark proved it
  // durable). Otherwise the returned reply is meaningless on success.
  util::Result<ReplyView> Recover(uint64_t* cycles, const Request* original,
                                  uint64_t want_index);

  ReliableLink link_;
  RetryConfig retry_;
  SessionStats* stats_;
  MsgType journal_type_;
  MsgType ack_type_;
  uint32_t seq_;
  uint32_t client_id_;
  uint32_t epoch_ = 0;
  uint64_t next_index_ = 0;  // ordinal of the next journaled op
  std::deque<JournalEntry> journal_;
  std::function<void()> quiesce_;
  // The replay ack Recover returns for the op that triggered it.
  ReplyView captured_;
};

}  // namespace sc::softcache
