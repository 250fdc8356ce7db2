#ifndef HCM_TOOLKIT_TRANSLATORS_FILESTORE_TRANSLATOR_H_
#define HCM_TOOLKIT_TRANSLATORS_FILESTORE_TRANSLATOR_H_

#include "src/ris/filestore/filestore.h"
#include "src/toolkit/translator.h"

namespace hcm::toolkit {

// CM-Translator for the Unix-like file store. RID read/write commands are
// *path templates* ("/phones/$1"); the file's entire contents are the
// item's value, stored as the value's textual form. list_command is a path
// prefix; each instance's argument is the path suffix. The file system has
// no change hooks, so notify interfaces are a configuration error — polling
// via a read interface is the only way to track it (exactly the situation
// in the paper's Section 4.2.3). errno-style failures map onto the CMI:
// EBUSY -> Unavailable (metric material), EIO -> Corruption (logical),
// ENOENT -> NotFound, EACCES -> PermissionDenied.
class FilestoreTranslator : public Translator {
 public:
  FilestoreTranslator(RidConfig config, ris::filestore::FileStore* fs,
                      sim::ParallelExecutor* executor, sim::Network* network,
                      trace::TraceRecorder* recorder,
                      const sim::FailureInjector* failures)
      : Translator(std::move(config), executor, network, recorder, failures),
        fs_(fs) {}

 protected:
  Result<Value> NativeRead(const RidItemMapping& mapping,
                           const std::vector<Value>& args) override;
  Status NativeWrite(const RidItemMapping& mapping,
                     const std::vector<Value>& args,
                     const Value& value) override;
  Result<std::vector<std::vector<Value>>> NativeList(
      const RidItemMapping& mapping) override;
  Status NativeInsert(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;
  Status NativeDelete(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;

 private:
  ris::filestore::FileStore* fs_;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_TRANSLATORS_FILESTORE_TRANSLATOR_H_
