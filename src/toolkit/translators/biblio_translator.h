#ifndef HCM_TOOLKIT_TRANSLATORS_BIBLIO_TRANSLATOR_H_
#define HCM_TOOLKIT_TRANSLATORS_BIBLIO_TRANSLATOR_H_

#include "src/ris/biblio/biblio.h"
#include "src/toolkit/translator.h"

namespace hcm::toolkit {

// CM-Translator for the WAIS-style bibliographic store. Items are
// per-record fields addressed by record id: the read_command names the
// field ("title"); args[0] is the record id. list_command is a
// "field=term" search expression enumerating matching record ids. The
// store is append-mostly: writes are unsupported (no write interface can
// be offered), deletes remove whole records, and the only change hook is
// record addition ("onadd <field>"), which reports the new record's field
// value with a Null old value.
class BiblioTranslator : public Translator {
 public:
  BiblioTranslator(RidConfig config, ris::biblio::BiblioStore* store,
                   sim::ParallelExecutor* executor, sim::Network* network,
                   trace::TraceRecorder* recorder,
                   const sim::FailureInjector* failures)
      : Translator(std::move(config), executor, network, recorder, failures),
        store_(store) {}

 protected:
  Result<Value> NativeRead(const RidItemMapping& mapping,
                           const std::vector<Value>& args) override;
  Status NativeWrite(const RidItemMapping& mapping,
                     const std::vector<Value>& args,
                     const Value& value) override;
  Result<std::vector<std::vector<Value>>> NativeList(
      const RidItemMapping& mapping) override;
  Status NativeDelete(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;
  Status InstallChangeHook(const RidItemMapping& mapping,
                           ChangeHook hook) override;

 private:
  ris::biblio::BiblioStore* store_;
  bool hook_installed_ = false;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_TRANSLATORS_BIBLIO_TRANSLATOR_H_
