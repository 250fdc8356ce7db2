#ifndef HCM_TOOLKIT_TRANSLATORS_WHOIS_TRANSLATOR_H_
#define HCM_TOOLKIT_TRANSLATORS_WHOIS_TRANSLATOR_H_

#include "src/ris/whois/whois.h"
#include "src/toolkit/translator.h"

namespace hcm::toolkit {

// CM-Translator for the whois directory server. RID commands are lines of
// the whois wire protocol ("get $1 phone", "set $1 phone $v"); values are
// rendered bare (the protocol is untyped text). The notify_hint is
// "attr <attribute>": the translator hooks the server's update callback and
// filters on that attribute; whois reports no old value, so hooks receive
// Null. Only one item mapping may install a hook (the server has a single
// callback slot) — matching the real service's limitation.
class WhoisTranslator : public Translator {
 public:
  WhoisTranslator(RidConfig config, ris::whois::WhoisServer* server,
                  sim::ParallelExecutor* executor, sim::Network* network,
                  trace::TraceRecorder* recorder,
                  const sim::FailureInjector* failures)
      : Translator(std::move(config), executor, network, recorder, failures),
        server_(server) {}

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
  ris::whois::WhoisServer* server_;
  bool hook_installed_ = false;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_TRANSLATORS_WHOIS_TRANSLATOR_H_
