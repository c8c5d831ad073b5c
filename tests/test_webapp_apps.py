"""Unit tests for the benchmark application catalog."""

import math

import numpy as np
import pytest

from repro.webapp.apps import AppCatalog, AppProfile, SEEN_APPS, UNSEEN_APPS
from repro.webapp.events import EventType


@pytest.fixture(scope="module")
def catalog():
    return AppCatalog()


class TestCatalog:
    def test_twelve_seen_six_unseen(self, catalog):
        assert len(catalog.seen()) == 12
        assert len(catalog) == 18

    def test_names_match_paper_suite(self, catalog):
        assert set(SEEN_APPS) == {p.name for p in catalog.seen()}
        assert set(UNSEEN_APPS) == {p.name for p in catalog.profiles.values() if not p.seen}
        assert "cnn" in SEEN_APPS and "amazon" in SEEN_APPS
        assert "taobao" in UNSEEN_APPS

    def test_get_unknown_app_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("myspace")


class TestProfileValidation:
    def test_fraction_fields_bounded(self):
        with pytest.raises(ValueError):
            AppProfile("x", True, 1.5, 0.3, 0.1, 1.0, 0.1)
        with pytest.raises(ValueError):
            AppProfile("x", True, 0.5, 0.3, -0.1, 1.0, 0.1)

    def test_workload_scale_positive(self):
        with pytest.raises(ValueError):
            AppProfile("x", True, 0.5, 0.3, 0.1, 0.0, 0.1)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_workload_scale_finite(self, scale):
        # A NaN scale used to surface only in trace generation, as a
        # misleading "tmem_ms must be non-negative".
        with pytest.raises(ValueError, match="workload_scale"):
            AppProfile("x", True, 0.5, 0.3, 0.1, scale, 0.1)


class TestBuildDom:
    def test_dom_contains_menus_and_form(self, catalog):
        profile = catalog.get("cnn")
        dom, semantic = profile.build_dom(np.random.default_rng(0))
        assert dom.find(f"{profile.name}-menu-btn-0") is not None
        assert dom.find(f"{profile.name}-form-submit") is not None
        assert len(semantic.effects) > 0

    def test_menu_toggle_registered_in_semantic_tree(self, catalog):
        profile = catalog.get("cnn")
        dom, semantic = profile.build_dom(np.random.default_rng(0))
        effect = semantic.effect_of(f"{profile.name}-menu-btn-0", EventType.CLICK)
        assert effect.target_node_ids
        assert not effect.navigates

    def test_nav_links_navigate(self, catalog):
        profile = catalog.get("cnn")
        _, semantic = profile.build_dom(np.random.default_rng(0))
        effect = semantic.effect_of(f"{profile.name}-nav-0", EventType.CLICK)
        assert effect.navigates

    def test_clickable_density_orders_clickable_fraction(self, catalog):
        """A densely clickable app (amazon) exposes a larger clickable region
        than a sparse one (slashdot)."""
        rng = np.random.default_rng(1)
        amazon_dom, _ = catalog.get("amazon").build_dom(rng)
        slashdot_dom, _ = catalog.get("slashdot").build_dom(np.random.default_rng(1))
        assert amazon_dom.clickable_region_fraction() > slashdot_dom.clickable_region_fraction()

    def test_scroll_listener_on_document_root(self, catalog):
        dom, _ = catalog.get("google").build_dom(np.random.default_rng(0))
        assert EventType.SCROLL in dom.root.listeners
        assert EventType.TOUCHMOVE in dom.root.listeners

    def test_page_taller_than_viewport(self, catalog):
        dom, _ = catalog.get("bbc").build_dom(np.random.default_rng(0))
        assert dom._page_height > dom.viewport.height
