"""Web application substrate: DOM trees, event taxonomy, rendering pipeline.

This package stands in for the Chromium rendering engine and the real
webpages of the paper's benchmark suite.  It provides:

* the DOM event taxonomy with per-interaction QoS targets,
* synthetic DOM trees with event listeners and viewport visibility,
* the Semantic Tree (Accessibility-Tree based) memoisation of callback
  effects used by the predictor's DOM analysis,
* frame timing: VSync-quantised frame submission and the planning margin,
* a catalog of the 18 benchmark applications with per-app characteristics.
"""
