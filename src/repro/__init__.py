"""PES reproduction: proactive event scheduling for mobile Web computing.

Reproduction of *PES: Proactive Event Scheduling for Responsive and
Energy-Efficient Mobile Web Computing* (Feng & Zhu, ISCA 2019) as a
pure-Python, trace-driven simulation stack.  Every name is imported from
the module that defines it.

Typical usage::

    from repro.core.predictor.training import PredictorTrainer
    from repro.runtime.parallel import ParallelEvaluator
    from repro.traces.generator import TraceGenerator
    from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS, AppCatalog

    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    training = generator.generate_many(list(SEEN_APPS), 8)
    learner = PredictorTrainer(catalog=catalog).train(training).learner

    evaluation = generator.generate_many(list(SEEN_APPS + UNSEEN_APPS), 3, base_seed=50_000)
    evaluator = ParallelEvaluator(catalog=catalog, jobs=1)
    aggregates = evaluator.compare(evaluation, ["Interactive", "EBS", "PES", "Oracle"],
                                   learner=learner)
    pes_energy_mj = aggregates["PES"].overall.total_energy_mj
"""
