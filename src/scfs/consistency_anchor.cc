#include "src/scfs/consistency_anchor.h"

#include "src/crypto/sha1.h"

namespace scfs {

std::string AnchoredStorage::AnchorHash(ConstByteSpan value) {
  return HexEncode(Sha1::Hash(value));
}

Status AnchoredStorage::Write(const std::string& id, ConstByteSpan value) {
  // w1: hash; w2: store the data under id|h; w3: anchor the hash. Only the
  // hash: this is Figure 3 as published, so the backend's locator is
  // dropped and reads locate the version by the hash alone.
  const std::string hash = AnchorHash(value);
  RETURN_IF_ERROR(storage_->WriteVersion(id, hash, value, {}).status());
  return anchor_->Write(client_, "anchor:" + id, ToBytes(hash));
}

Result<Bytes> AnchoredStorage::ReadWithHash(const std::string& id,
                                            const std::string& hash) {
  // r2: loop until the version becomes visible in the eventually-consistent
  // store; r3: integrity check against the anchored hash.
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    auto value = storage_->ReadByHash(id, hash, Bytes{});
    if (value.ok()) {
      if (AnchorHash(*value) != hash) {
        return CorruptionError("anchored hash mismatch for " + id);
      }
      return value;
    }
    if (value.status().code() != ErrorCode::kNotFound) {
      return value.status();
    }
    env_->Sleep(options_.retry_delay);
  }
  return TimeoutError("version " + hash + " never became visible");
}

Result<Bytes> AnchoredStorage::Read(const std::string& id) {
  // r1: fetch the anchored hash from the strongly consistent store.
  ASSIGN_OR_RETURN(CoordEntry entry, anchor_->Read(client_, "anchor:" + id));
  return ReadWithHash(id, ToString(entry.value));
}

Future<Status> AnchoredStorage::WriteAsync(const std::string& id,
                                           ConstByteSpan value) {
  auto owned = std::make_shared<Bytes>(CopyToBytes(value));
  // Stage 1 on the executor: hash + the SS write (all the storage-side
  // work, off the caller's thread). Stage 2 chains the CA publish through
  // the coordination service's own async path, so the hash is anchored
  // strictly after the data is durable.
  Promise<Status> done;
  inflight_.Add();
  DefaultExecutor().Post([this, id, owned, done] {
    Environment::ResetThreadCharged();
    const std::string hash = AnchorHash(*owned);
    Status stored = storage_->WriteVersion(id, hash, *owned, {}).status();
    if (!stored.ok()) {
      VirtualDuration charge = Environment::ThreadCharged();
      done.Set(std::move(stored), charge);
      inflight_.Done();
      return;
    }
    VirtualDuration ss_charge = Environment::ThreadCharged();
    anchor_->WriteAsync(client_, "anchor:" + id, ToBytes(hash))
        .OnReady([this, done, ss_charge](const Status& published,
                                         VirtualDuration ca_charge) {
          done.Set(published, ss_charge + ca_charge);
          inflight_.Done();
        });
  });
  return done.future();
}

Future<Result<Bytes>> AnchoredStorage::ReadAsync(const std::string& id) {
  Promise<Result<Bytes>> done;
  inflight_.Add();
  // r1 rides the coordination service's async path; the SS read loop (r2/r3)
  // then runs on the executor so the retry sleeps never block the caller.
  anchor_->ReadAsync(client_, "anchor:" + id)
      .OnReady([this, id, done](const Result<CoordEntry>& entry,
                                VirtualDuration ca_charge) {
        if (!entry.ok()) {
          done.Set(entry.status(), ca_charge);
          inflight_.Done();
          return;
        }
        const std::string hash = ToString(entry->value);
        DefaultExecutor().Post([this, id, hash, done, ca_charge] {
          Environment::ResetThreadCharged();
          Result<Bytes> value = ReadWithHash(id, hash);
          done.Set(std::move(value),
                   ca_charge + Environment::ThreadCharged());
          inflight_.Done();
        });
      });
  return done.future();
}

}  // namespace scfs
