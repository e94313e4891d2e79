let () =
  Alcotest.run "lowerbound"
    [
      ("bitvec", Suite_bitvec.suite);
      ("value", Suite_value.suite);
      ("memory", Suite_memory.suite);
      ("runtime", Suite_runtime.suite);
      ("secretive", Suite_secretive.suite);
      ("adversary", Suite_adversary.suite);
      ("objects", Suite_objects.suite);
      ("universal", Suite_universal.suite);
      ("wakeup", Suite_wakeup.suite);
      ("explore", Suite_explore.suite);
      ("litmus", Suite_litmus.suite);
      ("faults", Suite_faults.suite);
      ("extensions", Suite_extensions.suite);
      ("fuzz", Suite_fuzz.suite);
      ("plumbing", Suite_plumbing.suite);
      ("observe", Suite_observe.suite);
      ("exec", Suite_exec.suite);
      ("experiments", Suite_experiments.suite);
      ("conformance", Suite_conformance.suite);
      ("hardware", Suite_hardware.suite);
    ]
